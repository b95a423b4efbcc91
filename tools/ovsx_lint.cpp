// ovsx_lint — repository invariant checker for the concurrency toolchain.
//
// Clang's thread-safety analysis only sees what is annotated, and the
// runtime lockset checker only sees what executes; this linter closes
// the remaining gap by enforcing the *conventions* that make those two
// checkers sound, as plain-text rules over the tree:
//
//   raw-mutex           std::mutex / std::shared_mutex / std::lock_guard
//                       etc. anywhere outside src/sync/. Every lock must
//                       be an ovsx::sync wrapper or the lockset checker
//                       and the capability annotations are blind to it.
//   guarded-by-missing  container members (std containers and
//                       net::SlotTable) of the shared-table headers
//                       (the connection-table core and both conntracks
//                       over it, ebpf map, netlink cache, dpif_ebpf
//                       shadow) that lack an OVSX_GUARDED_BY
//                       annotation. The EMC and the megaflow cache
//                       (each PMD's, and the kernel module's flow
//                       table) are owned by one thread and are not
//                       listed.
//   unchecked-accessor  raw header_at<> packet accessors outside
//                       src/net/ and src/san/ — everything above the
//                       net layer must go through the checked parse
//                       paths.
//   hot-alloc           heap-allocation keywords (new, malloc,
//                       make_unique, make_shared) inside the body of an
//                       OVSX_HOT or OVSX_NO_ALLOC function. Hot paths
//                       must draw from preallocated pools.
//
// Violations are suppressible via tools/ovsx_lint_suppressions.txt:
// exact-match `rule:path:detail` lines plus a `budget N` cap. The list
// can only shrink — an unused suppression fails the run (stale), and
// more entries than the budget fails the run (the cap is lowered by
// hand when entries are burned down, never raised without review).
//
// Usage: ovsx_lint --root <repo_root> [--suppressions <file>]
//        ovsx_lint --self-test
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct SourceFile {
    std::string path; // repo-relative, forward slashes
    std::string text; // raw contents
};

struct Finding {
    std::string rule;
    std::string path;
    std::string detail; // rule-specific token; part of the suppression key
    int line = 0;
    std::string message;

    std::string key() const { return rule + ":" + path + ":" + detail; }
};

// ---- lexical helpers ----------------------------------------------------

// Blanks out comments and string/char literals (preserving newlines so
// line numbers survive), so the rules never match inside either.
std::string strip_comments_and_strings(const std::string& in)
{
    std::string out;
    out.reserve(in.size());
    enum class St { Code, Line, Block, Str, Chr } st = St::Code;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out += "  ";
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out += "  ";
                ++i;
            } else if (c == '"') {
                st = St::Str;
                out += ' ';
            } else if (c == '\'') {
                st = St::Chr;
                out += ' ';
            } else {
                out += c;
            }
            break;
        case St::Line:
            if (c == '\n') {
                st = St::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Str:
            if (c == '\\') {
                out += "  ";
                ++i;
            } else if (c == '"') {
                st = St::Code;
                out += ' ';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Chr:
            if (c == '\\') {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                out += ' ';
            } else {
                out += ' ';
            }
            break;
        }
    }
    return out;
}

int line_of(const std::string& text, std::size_t pos)
{
    return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

bool is_ident(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':'; }

// Finds whole-token occurrences of `token` (no identifier char on
// either side; ':' counts so "std::mutex" does not match inside
// "std::mutex_like").
std::vector<std::size_t> find_token(const std::string& text, const std::string& token)
{
    std::vector<std::size_t> hits;
    std::size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= text.size() || !is_ident(text[end]);
        if (left_ok && right_ok) hits.push_back(pos);
        pos = end;
    }
    return hits;
}

bool starts_with(const std::string& s, const std::string& prefix)
{
    return s.rfind(prefix, 0) == 0;
}

// Position just past the brace-matched block opening at `open` (which
// must point at '{'). Returns npos if unbalanced.
std::size_t match_brace(const std::string& text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}' && --depth == 0) return i + 1;
    }
    return std::string::npos;
}

// ---- rule: raw-mutex ----------------------------------------------------

const char* const kRawLockTokens[] = {
    "std::mutex",          "std::shared_mutex", "std::recursive_mutex",
    "std::timed_mutex",    "std::lock_guard",   "std::unique_lock",
    "std::scoped_lock",    "std::shared_lock",  "std::condition_variable",
    "pthread_mutex_t",     "pthread_rwlock_t",
};

void rule_raw_mutex(const SourceFile& f, const std::string& code, std::vector<Finding>& out)
{
    if (starts_with(f.path, "src/sync/")) return;
    for (const char* token : kRawLockTokens) {
        const auto hits = find_token(code, token);
        if (hits.empty()) continue;
        // One finding (and one suppression key) per token per file.
        out.push_back({"raw-mutex", f.path, token, line_of(code, hits.front()),
                       std::string(token) + " used outside src/sync/ (" +
                           std::to_string(hits.size()) +
                           " site(s)); wrap it in an ovsx::sync primitive so the "
                           "lockset checker and capability annotations see it"});
    }
}

// ---- rule: guarded-by-missing -------------------------------------------

// Headers whose container members are shared-table state: every one
// must carry OVSX_GUARDED_BY (or a reviewed suppression explaining why
// it is immutable after setup).
const char* const kSharedTableHeaders[] = {
    "src/ovs/ct.h",           "src/kern/conntrack.h", "src/kern/ct_table.h",
    "src/ebpf/map.h",         "src/ovs/netlink_cache.h", "src/ovs/dpif_ebpf.h",
};

const char* const kContainerTokens[] = {
    "std::vector<", "std::unordered_map<", "std::map<", "std::deque<", "std::list<", "SlotTable<",
};

void rule_guarded_by(const SourceFile& f, const std::string& code, std::vector<Finding>& out)
{
    const bool manifest = std::any_of(std::begin(kSharedTableHeaders),
                                      std::end(kSharedTableHeaders),
                                      [&](const char* h) { return f.path == h; });
    if (!manifest) return;

    // Statement = text since the last ';', '{' or '}' boundary. Member
    // declarations always form one such statement; function bodies and
    // nested braces reset the buffer so their contents are judged
    // line-by-line (a local container declaration inside an inline
    // function is still flagged — hot-path headers should not have
    // those either, and a suppression covers deliberate ones).
    std::size_t start = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const char c = code[i];
        if (c != ';' && c != '{' && c != '}') continue;
        if (c == ';') {
            std::string stmt = code.substr(start, i - start);
            const std::size_t stmt_pos = start;
            // Trim.
            const auto b = stmt.find_first_not_of(" \t\n");
            stmt = b == std::string::npos ? "" : stmt.substr(b);
            const bool has_container =
                std::any_of(std::begin(kContainerTokens), std::end(kContainerTokens),
                            [&](const char* t) { return stmt.find(t) != std::string::npos; });
            if (has_container && stmt.find("OVSX_GUARDED_BY") == std::string::npos &&
                !starts_with(stmt, "using ") && !starts_with(stmt, "typedef ") &&
                !starts_with(stmt, "return ") && !starts_with(stmt, "friend ") &&
                !starts_with(stmt, "template") && stmt.find("static") == std::string::npos) {
                // Annotations other than GUARDED_BY carry parens; erase
                // them before using '(' to mean "function declaration".
                std::string probe = stmt;
                for (const char* ann : {"OVSX_EXCLUDES", "OVSX_REQUIRES", "OVSX_TS_ATTR"}) {
                    std::size_t p;
                    while ((p = probe.find(ann)) != std::string::npos) {
                        const std::size_t open = probe.find('(', p);
                        if (open == std::string::npos) break;
                        std::size_t depth = 0, q = open;
                        for (; q < probe.size(); ++q) {
                            if (probe[q] == '(') ++depth;
                            if (probe[q] == ')' && --depth == 0) break;
                        }
                        probe.erase(p, q == probe.size() ? std::string::npos : q - p + 1);
                    }
                }
                if (probe.find('(') == std::string::npos) {
                    // Member name: last identifier before any '=' initializer.
                    std::string decl = probe.substr(0, probe.find('='));
                    std::string name;
                    for (std::size_t j = decl.size(); j-- > 0;) {
                        const char d = decl[j];
                        if (std::isalnum(static_cast<unsigned char>(d)) || d == '_') {
                            name.insert(name.begin(), d);
                        } else if (!name.empty()) {
                            break;
                        }
                    }
                    if (!name.empty()) {
                        out.push_back({"guarded-by-missing", f.path, name,
                                       line_of(code, stmt_pos + b),
                                       "container member '" + name +
                                           "' in a shared-table header lacks "
                                           "OVSX_GUARDED_BY"});
                    }
                }
            }
        }
        start = i + 1;
    }
}

// ---- rule: unchecked-accessor -------------------------------------------

void rule_unchecked_accessor(const SourceFile& f, const std::string& code,
                             std::vector<Finding>& out)
{
    if (starts_with(f.path, "src/net/") || starts_with(f.path, "src/san/")) return;
    const auto hits = find_token(code, "header_at");
    if (hits.empty()) return;
    out.push_back({"unchecked-accessor", f.path, "header_at", line_of(code, hits.front()),
                   "raw header_at<> accessor outside src/net/,src/san/ (" +
                       std::to_string(hits.size()) +
                       " site(s)); use the checked parse path or add a reviewed "
                       "suppression"});
}

// ---- rule: hot-alloc ----------------------------------------------------

const char* const kAllocTokens[] = {
    "new", "std::make_unique", "std::make_shared", "malloc", "calloc", "realloc",
};

struct HotFn {
    std::string cls;    // enclosing class at the declaration ("" = free fn)
    std::string method;
    std::string decl_path;
    int decl_line = 0;
};

// Scans `code` for OVSX_HOT and OVSX_NO_ALLOC declarations (the same
// contract, with and without the compiler hint), tracking `class`/`struct`
// nesting so the declaration is attributed to its innermost class.
// Inline bodies are checked on the spot; out-of-line declarations are
// returned for definition lookup across the .cpp files.
void scan_hot(const SourceFile& f, const std::string& code, std::vector<HotFn>& pending,
              std::vector<Finding>& out);

void check_hot_body(const std::string& body, const SourceFile& f, std::size_t body_pos,
                    const std::string& cls, const std::string& method,
                    std::vector<Finding>& out)
{
    for (const char* token : kAllocTokens) {
        const auto hits = find_token(body, token);
        if (hits.empty()) continue;
        const std::string fn = cls.empty() ? method : cls + "::" + method;
        out.push_back({"hot-alloc", f.path, fn, line_of(f.text, body_pos + hits.front()),
                       "heap allocation (" + std::string(token) + ") inside hot-path " + fn +
                           "; hot paths must draw from preallocated pools"});
        return; // one finding per function
    }
}

void scan_hot(const SourceFile& f, const std::string& code, std::vector<HotFn>& pending,
              std::vector<Finding>& out)
{
    // class/struct nesting: (depth when pushed, name).
    std::vector<std::pair<int, std::string>> class_stack;
    std::string pending_class; // saw `class NAME`, waiting for its '{'
    int depth = 0;
    std::size_t i = 0;
    while (i < code.size()) {
        const char c = code[i];
        if (c == '{') {
            ++depth;
            if (!pending_class.empty()) {
                class_stack.emplace_back(depth, pending_class);
                pending_class.clear();
            }
            ++i;
            continue;
        }
        if (c == '}') {
            if (!class_stack.empty() && class_stack.back().first == depth) class_stack.pop_back();
            --depth;
            ++i;
            continue;
        }
        if (c == ';') {
            pending_class.clear(); // forward declaration
            ++i;
            continue;
        }
        if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < code.size() && is_ident(code[j])) ++j;
        const std::string word = code.substr(i, j - i);
        if (word == "class" || word == "struct" || word == "enum") {
            std::size_t k = j;
            while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k]))) ++k;
            std::size_t e = k;
            while (e < code.size() && is_ident(code[e])) ++e;
            pending_class = code.substr(k, e - k);
            i = e;
            continue;
        }
        if (word == "OVSX_HOT" || word == "OVSX_NO_ALLOC") {
            // Declaration runs to the first ';' or '{'.
            std::size_t end = j;
            while (end < code.size() && code[end] != ';' && code[end] != '{') ++end;
            const std::string decl = code.substr(j, end - j);
            // Method name: identifier immediately before the first '('.
            const std::size_t paren = decl.find('(');
            std::string method;
            if (paren != std::string::npos) {
                std::size_t m = paren;
                while (m > 0 && std::isspace(static_cast<unsigned char>(decl[m - 1]))) --m;
                std::size_t s = m;
                while (s > 0 && (std::isalnum(static_cast<unsigned char>(decl[s - 1])) ||
                                 decl[s - 1] == '_')) {
                    --s;
                }
                method = decl.substr(s, m - s);
            }
            const std::string cls = class_stack.empty() ? "" : class_stack.back().second;
            if (!method.empty() && end < code.size() && code[end] == '{') {
                const std::size_t close = match_brace(code, end);
                if (close != std::string::npos) {
                    check_hot_body(code.substr(end, close - end), f, end, cls, method, out);
                }
            } else if (!method.empty()) {
                pending.push_back({cls, method, f.path, line_of(code, i)});
            }
            i = end;
            continue;
        }
        i = j;
    }
}

void resolve_hot_definitions(const std::vector<SourceFile>& files,
                             const std::vector<std::string>& stripped,
                             const std::vector<HotFn>& pending, std::vector<Finding>& out)
{
    for (const HotFn& fn : pending) {
        const std::string qualified =
            fn.cls.empty() ? fn.method : fn.cls + "::" + fn.method;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            if (files[fi].path.size() < 4 ||
                files[fi].path.substr(files[fi].path.size() - 4) != ".cpp") {
                continue;
            }
            const std::string& code = stripped[fi];
            for (const std::size_t pos : find_token(code, qualified)) {
                std::size_t k = pos + qualified.size();
                while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k]))) ++k;
                if (k >= code.size() || code[k] != '(') continue;
                // Skip the parameter list, then any specifiers, to '{'.
                int pd = 0;
                for (; k < code.size(); ++k) {
                    if (code[k] == '(') ++pd;
                    if (code[k] == ')' && --pd == 0) {
                        ++k;
                        break;
                    }
                }
                while (k < code.size() && code[k] != '{' && code[k] != ';') ++k;
                if (k >= code.size() || code[k] != '{') continue;
                const std::size_t close = match_brace(code, k);
                if (close == std::string::npos) continue;
                check_hot_body(code.substr(k, close - k), files[fi], k, fn.cls, fn.method, out);
            }
        }
    }
}

// ---- driver -------------------------------------------------------------

std::vector<Finding> run_rules(const std::vector<SourceFile>& files)
{
    std::vector<Finding> findings;
    std::vector<std::string> stripped;
    stripped.reserve(files.size());
    for (const SourceFile& f : files) stripped.push_back(strip_comments_and_strings(f.text));

    std::vector<HotFn> pending_hot;
    for (std::size_t i = 0; i < files.size(); ++i) {
        rule_raw_mutex(files[i], stripped[i], findings);
        rule_guarded_by(files[i], stripped[i], findings);
        rule_unchecked_accessor(files[i], stripped[i], findings);
        scan_hot(files[i], stripped[i], pending_hot, findings);
    }
    resolve_hot_definitions(files, stripped, pending_hot, findings);

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) { return a.key() < b.key(); });
    return findings;
}

struct Suppressions {
    long budget = -1; // -1 = no budget line present
    std::vector<std::string> keys;
    bool ok = true;
    std::string error;
};

Suppressions load_suppressions(const std::string& path)
{
    Suppressions s;
    std::ifstream in(path);
    if (!in) {
        s.ok = false;
        s.error = "cannot open suppression file: " + path;
        return s;
    }
    std::string line;
    while (std::getline(in, line)) {
        const auto b = line.find_first_not_of(" \t");
        if (b == std::string::npos) continue;
        const auto e = line.find_last_not_of(" \t\r");
        line = line.substr(b, e - b + 1);
        if (line.empty() || line[0] == '#') continue;
        if (starts_with(line, "budget ")) {
            s.budget = std::stol(line.substr(7));
            continue;
        }
        s.keys.push_back(line);
    }
    std::sort(s.keys.begin(), s.keys.end());
    if (std::adjacent_find(s.keys.begin(), s.keys.end()) != s.keys.end()) {
        s.ok = false;
        s.error = "duplicate suppression entries";
    }
    return s;
}

int report(const std::vector<Finding>& findings, const Suppressions& sup)
{
    if (!sup.ok) {
        std::printf("FAIL: %s\n", sup.error.c_str());
        return 1;
    }
    int failures = 0;
    std::set<std::string> used;
    for (const Finding& f : findings) {
        if (std::binary_search(sup.keys.begin(), sup.keys.end(), f.key())) {
            used.insert(f.key());
            continue;
        }
        std::printf("FAIL: [%s] %s:%d: %s\n    suppression key: %s\n", f.rule.c_str(),
                    f.path.c_str(), f.line, f.message.c_str(), f.key().c_str());
        ++failures;
    }
    for (const std::string& key : sup.keys) {
        if (!used.count(key)) {
            std::printf("FAIL: stale suppression (no longer matches anything, delete it "
                        "and lower the budget): %s\n",
                        key.c_str());
            ++failures;
        }
    }
    if (sup.budget >= 0 && static_cast<long>(sup.keys.size()) > sup.budget) {
        std::printf("FAIL: %zu suppressions exceed budget %ld (the list only shrinks; "
                    "fix the new violation instead of suppressing it)\n",
                    sup.keys.size(), sup.budget);
        ++failures;
    }
    if (failures == 0) {
        std::printf("ovsx_lint ok: %zu finding(s), all covered by %zu suppression(s) "
                    "within budget %ld\n",
                    findings.size(), sup.keys.size(), sup.budget);
    }
    return failures == 0 ? 0 : 1;
}

std::vector<SourceFile> collect_files(const fs::path& root)
{
    std::vector<SourceFile> files;
    for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".h" && ext != ".cpp") continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        files.push_back({fs::relative(entry.path(), root).generic_string(), ss.str()});
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
    return files;
}

// ---- self-test ----------------------------------------------------------

int count_rule(const std::vector<Finding>& fs, const std::string& rule)
{
    return static_cast<int>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; }));
}

int self_test()
{
    int failed = 0;
    const auto expect = [&](bool cond, const char* what) {
        if (!cond) {
            std::printf("self-test FAIL: %s\n", what);
            ++failed;
        }
    };

    // raw-mutex: fires outside src/sync/, silent inside, silent in comments.
    {
        const auto fs = run_rules({
            {"src/ovs/x.cpp", "std::mutex m;\n"},
            {"src/sync/y.cpp", "std::mutex m;\n"},
            {"src/ovs/z.cpp", "// std::mutex in a comment\n\"std::mutex\";\n"},
        });
        expect(count_rule(fs, "raw-mutex") == 1, "raw-mutex fires exactly once");
        expect(fs.at(0).key() == "raw-mutex:src/ovs/x.cpp:std::mutex",
               "raw-mutex suppression key shape");
    }
    // guarded-by-missing: unannotated container member in a manifest
    // header fires; annotated member and non-manifest header are silent.
    {
        const auto fs = run_rules({
            {"src/ebpf/map.h", "class Map {\n"
                               "    std::vector<int> table_;\n"
                               "    std::vector<int> ok_ OVSX_GUARDED_BY(mu_);\n"
                               "    std::vector<int> snapshot() const OVSX_EXCLUDES(mu_);\n"
                               "};\n"},
            {"src/obs/other.h", "std::vector<int> unguarded;\n"},
        });
        expect(count_rule(fs, "guarded-by-missing") == 1, "guarded-by fires exactly once");
        expect(fs.at(0).detail == "table_", "guarded-by names the member");
    }
    // guarded-by-missing covers slot tables, the conntrack shards' store.
    {
        const auto fs = run_rules({
            {"src/kern/ct_table.h", "struct Shard {\n"
                                    "    net::SlotTable<CtEntry*> index;\n"
                                    "    net::SlotTable<int*> ok OVSX_GUARDED_BY(mu);\n"
                                    "};\n"},
        });
        expect(count_rule(fs, "guarded-by-missing") == 1 && fs.at(0).detail == "index",
               "guarded-by covers slot tables");
    }
    // unchecked-accessor: fires above the net layer only.
    {
        const auto fs = run_rules({
            {"src/ovs/a.cpp", "auto* h = pkt.header_at<Udp>(off);\n"},
            {"src/net/b.cpp", "auto* h = pkt.header_at<Udp>(off);\n"},
        });
        expect(count_rule(fs, "unchecked-accessor") == 1, "unchecked-accessor scoping");
    }
    // hot-alloc: inline body, out-of-line body via Class::method, the
    // lint-only marker, and a clean hot function.
    {
        const auto fs = run_rules({
            {"src/ovs/h.h", "class Fast {\n"
                            "    struct Inner { int x; };\n"
                            "    OVSX_HOT int inline_bad() { return *new int(1); }\n"
                            "    OVSX_HOT void outline_bad(int n);\n"
                            "    OVSX_NO_ALLOC void marked_bad(int n);\n"
                            "    OVSX_HOT int clean() { return 1; }\n"
                            "};\n"},
            {"src/ovs/h.cpp", "void Fast::outline_bad(int n)\n"
                              "{\n    auto p = std::make_unique<int>(n);\n}\n"
                              "void Fast::marked_bad(int n)\n"
                              "{\n    auto p = std::make_shared<int>(n);\n}\n"},
        });
        expect(count_rule(fs, "hot-alloc") == 3,
               "hot-alloc finds inline, out-of-line and OVSX_NO_ALLOC bodies");
        expect(std::any_of(fs.begin(), fs.end(),
                           [](const Finding& f) { return f.detail == "Fast::inline_bad"; }),
               "hot-alloc attributes the innermost enclosing class");
    }
    // Suppression mechanics: unsuppressed finding fails, suppressed
    // passes, stale entry fails, over-budget fails.
    {
        const std::vector<Finding> one = {{"raw-mutex", "src/a.cpp", "std::mutex", 1, "m"}};
        Suppressions none;
        none.budget = 0;
        expect(report(one, none) == 1, "unsuppressed finding fails");
        Suppressions match;
        match.budget = 1;
        match.keys = {"raw-mutex:src/a.cpp:std::mutex"};
        expect(report(one, match) == 0, "suppressed finding passes");
        Suppressions stale;
        stale.budget = 2;
        stale.keys = {"raw-mutex:src/a.cpp:std::mutex", "raw-mutex:src/gone.cpp:std::mutex"};
        expect(report(one, stale) == 1, "stale suppression fails");
        Suppressions over;
        over.budget = 0;
        over.keys = {"raw-mutex:src/a.cpp:std::mutex"};
        expect(report(one, over) == 1, "over-budget fails");
    }

    if (failed == 0) std::printf("ovsx_lint self-test ok\n");
    return failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    std::string root_arg;
    std::string sup_arg;
    bool do_self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            do_self_test = true;
        } else if (arg == "--root" && i + 1 < argc) {
            root_arg = argv[++i];
        } else if (arg == "--suppressions" && i + 1 < argc) {
            sup_arg = argv[++i];
        } else {
            std::printf("usage: ovsx_lint --root <repo_root> [--suppressions <file>] | "
                        "--self-test\n");
            return 2;
        }
    }
    if (do_self_test) return self_test();
    if (root_arg.empty()) {
        std::printf("usage: ovsx_lint --root <repo_root> [--suppressions <file>] | "
                    "--self-test\n");
        return 2;
    }
    const fs::path root(root_arg);
    if (sup_arg.empty()) sup_arg = (root / "tools" / "ovsx_lint_suppressions.txt").string();
    return report(run_rules(collect_files(root)), load_suppressions(sup_arg));
}

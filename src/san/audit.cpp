#include "san/audit.h"

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "sync/mutex.h"

namespace ovsx::san {

namespace {

// One audited table: {scope, category}.
using TableId = std::pair<std::uint64_t, std::string>;

// The audit registry is global shared state itself: table methods call
// in while holding their own table lock, so audit_mu() is a leaf in the
// lock order (documented in docs/CONCURRENCY.md) — it is acquired last
// and nothing is acquired under it.
struct AuditState {
    sync::Mutex mu{"san.audit"};
    std::map<TableId, std::unordered_set<std::uint64_t>> tables
        OVSX_GUARDED_BY(mu);
    std::map<TableId, std::unordered_map<std::uint64_t, std::int64_t>> refs
        OVSX_GUARDED_BY(mu);
};

AuditState& audit_state()
{
    static AuditState s;
    return s;
}

void violate(const char* checker, std::uint64_t scope, const char* category,
             const std::string& msg, Site site)
{
    Violation v;
    v.checker = checker;
    v.message = std::string(category) + " (scope " + std::to_string(scope) + "): " + msg;
    v.site = site;
    report(std::move(v));
}

} // namespace

void audit_add(std::uint64_t scope, const char* category, std::uint64_t key, Site site)
{
    if (!hardened()) return;
    AuditState& s = audit_state();
    bool fresh;
    {
        sync::LockGuard g(s.mu);
        fresh = s.tables[{scope, category}].insert(key).second;
    }
    if (!fresh) {
        violate("audit-double-add", scope, category,
                "entry " + std::to_string(key) + " registered twice", site);
    }
}

void audit_remove(std::uint64_t scope, const char* category, std::uint64_t key, Site site)
{
    if (!hardened()) return;
    AuditState& s = audit_state();
    bool known;
    {
        sync::LockGuard g(s.mu);
        auto bit = s.tables.find({scope, category});
        known = bit != s.tables.end() && bit->second.erase(key) != 0;
    }
    if (!known) {
        violate("audit-unknown-remove", scope, category,
                "entry " + std::to_string(key) + " erased but never registered", site);
    }
}

void audit_clear(std::uint64_t scope, const char* category)
{
    if (!hardened()) return;
    AuditState& s = audit_state();
    sync::LockGuard g(s.mu);
    s.tables.erase({scope, category});
}

std::size_t audit_size(std::uint64_t scope, const char* category)
{
    AuditState& s = audit_state();
    sync::LockGuard g(s.mu);
    auto bit = s.tables.find({scope, category});
    return bit == s.tables.end() ? 0 : bit->second.size();
}

void audit_expect_size(std::uint64_t scope, const char* category, std::size_t expected,
                       Site site)
{
    if (!hardened()) return;
    const std::size_t got = audit_size(scope, category);
    if (got != expected) {
        violate("audit-size-mismatch", scope, category,
                "structure holds " + std::to_string(expected) + " entries but " +
                    std::to_string(got) + " are registered — entries leaked or lost",
                site);
    }
}

void audit_expect_linked(std::uint64_t scope, const char* cat_a, const char* cat_b,
                         Site site)
{
    if (!hardened()) return;
    const std::size_t a = audit_size(scope, cat_a);
    const std::size_t b = audit_size(scope, cat_b);
    if (a != b) {
        violate("audit-link-broken", scope, cat_a,
                std::string("linked tables drifted: ") + cat_a + " has " +
                    std::to_string(a) + " entries, " + cat_b + " has " +
                    std::to_string(b),
                site);
    }
}

void audit_expect_empty(std::uint64_t scope, const char* category, Site site)
{
    if (!hardened()) return;
    const std::size_t got = audit_size(scope, category);
    if (got != 0) {
        violate("audit-leak", scope, category,
                std::to_string(got) + " entries still registered at teardown", site);
    }
}

void ref_inc(std::uint64_t scope, const char* category, std::uint64_t key, Site site)
{
    if (!hardened()) return;
    (void)site;
    AuditState& s = audit_state();
    sync::LockGuard g(s.mu);
    ++s.refs[{scope, category}][key];
}

bool ref_dec(std::uint64_t scope, const char* category, std::uint64_t key, Site site)
{
    if (!hardened()) return true;
    AuditState& s = audit_state();
    bool ok = false;
    {
        sync::LockGuard g(s.mu);
        auto bit = s.refs.find({scope, category});
        if (bit != s.refs.end()) {
            auto it = bit->second.find(key);
            if (it != bit->second.end() && it->second > 0) {
                if (--it->second == 0) bit->second.erase(it);
                ok = true;
            }
        }
    }
    if (!ok) {
        violate("refcount-underflow", scope, category,
                "reference " + std::to_string(key) + " released more times than taken", site);
    }
    return ok;
}

std::int64_t ref_count(std::uint64_t scope, const char* category, std::uint64_t key)
{
    AuditState& s = audit_state();
    sync::LockGuard g(s.mu);
    auto bit = s.refs.find({scope, category});
    if (bit == s.refs.end()) return 0;
    auto it = bit->second.find(key);
    return it == bit->second.end() ? 0 : it->second;
}

void ref_expect_all_zero(std::uint64_t scope, const char* category, Site site)
{
    if (!hardened()) return;
    AuditState& s = audit_state();
    std::vector<std::pair<std::uint64_t, std::int64_t>> leaked;
    {
        sync::LockGuard g(s.mu);
        auto bit = s.refs.find({scope, category});
        if (bit == s.refs.end()) return;
        for (const auto& [key, count] : bit->second) {
            if (count != 0) leaked.emplace_back(key, count);
        }
    }
    for (const auto& [key, count] : leaked) {
        violate("refcount-leak", scope, category,
                "reference " + std::to_string(key) + " still held " + std::to_string(count) +
                    " time(s) at teardown",
                site);
    }
}

void audit_reset()
{
    AuditState& s = audit_state();
    sync::LockGuard g(s.mu);
    s.tables.clear();
    s.refs.clear();
}

} // namespace ovsx::san

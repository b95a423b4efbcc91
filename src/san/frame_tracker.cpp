#include "san/frame_tracker.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace ovsx::san {

namespace {

constexpr std::size_t kMaxHistory = 24;

// Structured history entry (see packet_ledger.cpp): hardened mode notes
// every ring hop of every frame, so the trail is stored as PODs and only
// rendered to strings when a violation fires.
struct FrameNote {
    FrameState from = FrameState::UserPool;
    FrameState to = FrameState::UserPool;
    bool registration = false;
    Site site;
};

struct FrameRecord {
    FrameState state = FrameState::UserPool;
    std::vector<FrameNote> history;
    bool truncated = false;
};

using FrameMap = std::unordered_map<std::uint64_t, FrameRecord>;

std::unordered_map<std::uint64_t, FrameMap>& scopes()
{
    static std::unordered_map<std::uint64_t, FrameMap> m;
    return m;
}

void count_scopes()
{
    detail::g_tracked_scopes.store(scopes().size(), std::memory_order_relaxed);
}

void note(FrameRecord& rec, FrameState from, FrameState to, bool registration, Site site)
{
    if (rec.history.size() >= kMaxHistory) {
        rec.truncated = true;
        return;
    }
    rec.history.push_back(FrameNote{from, to, registration, site});
}

std::vector<std::string> format_history(const FrameRecord& rec)
{
    std::vector<std::string> out;
    out.reserve(rec.history.size() + (rec.truncated ? 1 : 0));
    for (const FrameNote& n : rec.history) {
        const std::string line =
            n.registration ? std::string("registered as ") + to_string(n.to)
                           : std::string(to_string(n.from)) + " -> " + to_string(n.to);
        out.push_back(line + " @ " + n.site.to_string());
    }
    if (rec.truncated) out.push_back("... (history truncated)");
    return out;
}

void violate(const char* checker, std::uint64_t addr, const std::string& msg, Site site,
             const FrameRecord* rec)
{
    Violation v;
    v.checker = checker;
    v.message = "umem frame 0x" + [addr] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(addr));
        return std::string(buf);
    }() + ": " + msg;
    v.site = site;
    if (rec) v.history = format_history(*rec);
    report(std::move(v));
}

// Valid predecessors for each destination state in the ring cycle.
bool valid_transition(FrameState from, FrameState to)
{
    switch (to) {
    case FrameState::FillRing:
        // user refill, or the kernel giving the frame back when the rx
        // ring is full.
        return from == FrameState::UserPool || from == FrameState::KernelRx;
    case FrameState::KernelRx: return from == FrameState::FillRing;
    case FrameState::RxRing: return from == FrameState::KernelRx;
    case FrameState::TxRing: return from == FrameState::UserPool;
    case FrameState::CompRing: return from == FrameState::TxRing;
    case FrameState::UserPool:
        return from == FrameState::RxRing || from == FrameState::CompRing;
    }
    return false;
}

const char* checker_for(FrameState from, FrameState to)
{
    if (to == FrameState::FillRing && from == FrameState::FillRing)
        return "frame-double-fill";
    if (to == FrameState::TxRing && from == FrameState::TxRing) return "frame-double-tx";
    return "frame-bad-transition";
}

} // namespace

std::atomic<std::size_t> detail::g_tracked_scopes{0};

const char* to_string(FrameState s)
{
    switch (s) {
    case FrameState::UserPool: return "user-pool";
    case FrameState::FillRing: return "fill-ring";
    case FrameState::KernelRx: return "kernel-rx";
    case FrameState::RxRing: return "rx-ring";
    case FrameState::TxRing: return "tx-ring";
    case FrameState::CompRing: return "completion-ring";
    }
    return "?";
}

void frame_register(std::uint64_t scope, std::uint64_t addr, FrameState initial, Site site)
{
    if (!hardened()) return;
    FrameMap& frames = scopes()[scope];
    count_scopes();
    auto [it, fresh] = frames.try_emplace(addr);
    if (!fresh) {
        violate("frame-double-register", addr, "registered twice in one umem scope", site,
                &it->second);
        return;
    }
    it->second.state = initial;
    note(it->second, initial, initial, /*registration=*/true, site);
}

bool frame_scope_tracked(std::uint64_t scope) { return scopes().count(scope) != 0; }

void detail::frame_transition_tracked(std::uint64_t scope, std::uint64_t addr,
                                      FrameState next, Site site)
{
    auto sit = scopes().find(scope);
    if (sit == scopes().end()) return;
    auto it = sit->second.find(addr);
    if (it == sit->second.end()) {
        violate("frame-invalid", addr, "descriptor address outside the registered umem",
                site, nullptr);
        return;
    }
    FrameRecord& rec = it->second;
    if (!valid_transition(rec.state, next)) {
        violate(checker_for(rec.state, next), addr,
                std::string("illegal ") + to_string(rec.state) + " -> " + to_string(next),
                site, &rec);
        return;
    }
    note(rec, rec.state, next, /*registration=*/false, site);
    rec.state = next;
}

std::size_t frame_expect_quiesced(std::uint64_t scope, Site site)
{
    if (!hardened()) return 0;
    auto sit = scopes().find(scope);
    if (sit == scopes().end()) return 0;
    std::size_t violations = 0;
    for (const auto& [addr, rec] : sit->second) {
        if (rec.state == FrameState::KernelRx || rec.state == FrameState::TxRing) {
            violate("frame-leak", addr,
                    std::string("still owned by ") + to_string(rec.state) +
                        " at socket teardown",
                    site, &rec);
            ++violations;
        }
    }
    return violations;
}

void frame_release_scope(std::uint64_t scope)
{
    scopes().erase(scope);
    count_scopes();
}

std::size_t frame_count(std::uint64_t scope)
{
    auto sit = scopes().find(scope);
    return sit == scopes().end() ? 0 : sit->second.size();
}

} // namespace ovsx::san

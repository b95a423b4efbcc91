#include "san/packet_ledger.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace ovsx::san {

namespace {

constexpr std::size_t kMaxHistory = 24;

// One structured history entry. Hardened mode notes every ownership
// operation on every packet, so entries are plain PODs (two interned
// strings + a numeric ref + the site); the human-readable trail is only
// formatted when a violation is actually reported.
struct SkbNote {
    const char* verb = "";   // "acquired" / "cloned from" / transition arrow
    const char* a = "";      // origin or from-state
    const char* b = "";      // to-state ("" = not a transition)
    std::uint64_t ref = 0;   // cloned-from id
    Site site;
};

struct SkbRecord {
    SkbState state = SkbState::Driver;
    const char* origin = "?";
    std::vector<SkbNote> history;
    bool truncated = false;
};

std::unordered_map<std::uint64_t, SkbRecord>& ledger()
{
    static std::unordered_map<std::uint64_t, SkbRecord> m;
    return m;
}

std::uint64_t g_next_id = 1;

void note(SkbRecord& rec, const char* verb, const char* a, const char* b, std::uint64_t ref,
          Site site)
{
    if (rec.history.size() >= kMaxHistory) {
        rec.truncated = true;
        return;
    }
    rec.history.push_back(SkbNote{verb, a, b, ref, site});
}

std::vector<std::string> format_history(const SkbRecord& rec)
{
    std::vector<std::string> out;
    out.reserve(rec.history.size() + (rec.truncated ? 1 : 0));
    for (const SkbNote& n : rec.history) {
        std::string line = n.verb;
        if (n.ref) line += " skb #" + std::to_string(n.ref);
        if (n.a[0]) {
            line += n.b[0] ? std::string(" ") + n.a + " -> " + n.b
                           : std::string(" ") + n.a;
        }
        out.push_back(line + " @ " + n.site.to_string());
    }
    if (rec.truncated) out.push_back("... (history truncated)");
    return out;
}

void violate(const char* checker, std::uint64_t id, const std::string& msg, Site site,
             const SkbRecord* rec)
{
    Violation v;
    v.checker = checker;
    v.message = "skb #" + std::to_string(id) + ": " + msg;
    v.site = site;
    if (rec) v.history = format_history(*rec);
    report(std::move(v));
}

} // namespace

const char* to_string(SkbState s)
{
    switch (s) {
    case SkbState::Driver: return "driver";
    case SkbState::Stack: return "stack";
    case SkbState::Datapath: return "datapath";
    case SkbState::Tx: return "tx";
    case SkbState::Freed: return "freed";
    }
    return "?";
}

std::uint64_t detail::skb_acquire_tracked(const char* origin, SkbState initial, Site site)
{
    const std::uint64_t id = g_next_id++;
    SkbRecord rec;
    rec.state = initial;
    rec.origin = origin;
    note(rec, "acquired", origin, to_string(initial), 0, site);
    ledger().emplace(id, std::move(rec));
    return id;
}

std::uint64_t detail::skb_clone_tracked(std::uint64_t id, Site site)
{
    auto it = ledger().find(id);
    if (it == ledger().end()) {
        violate("skb-use-after-free", id, "cloned after destruction", site, nullptr);
        return 0;
    }
    if (it->second.state == SkbState::Freed) {
        violate("skb-use-after-free", id, "cloned after free", site, &it->second);
        return 0;
    }
    const std::uint64_t cid = g_next_id++;
    SkbRecord rec = it->second; // inherit the trail up to the fork
    note(rec, "cloned from", "", "", id, site);
    ledger().emplace(cid, std::move(rec));
    return cid;
}

void detail::skb_transition_tracked(std::uint64_t id, SkbState next, Site site)
{
    auto it = ledger().find(id);
    if (it == ledger().end()) {
        violate("skb-use-after-free", id,
                std::string("ownership transition to ") + to_string(next) +
                    " after destruction",
                site, nullptr);
        return;
    }
    SkbRecord& rec = it->second;
    if (rec.state == SkbState::Freed) {
        violate("skb-use-after-free", id,
                std::string("ownership transition to ") + to_string(next) + " after free",
                site, &rec);
        return;
    }
    if (next == SkbState::Tx && rec.state == SkbState::Tx) {
        violate("skb-double-tx", id, "transmitted twice without an intermediate owner",
                site, &rec);
        return;
    }
    note(rec, "", to_string(rec.state), to_string(next), 0, site);
    rec.state = next;
}

void detail::skb_free_tracked(std::uint64_t id, Site site)
{
    auto it = ledger().find(id);
    if (it == ledger().end()) {
        violate("skb-double-free", id, "freed after destruction", site, nullptr);
        return;
    }
    SkbRecord& rec = it->second;
    if (rec.state == SkbState::Freed) {
        violate("skb-double-free", id, "freed twice", site, &rec);
        return;
    }
    note(rec, "", to_string(rec.state), "freed", 0, site);
    rec.state = SkbState::Freed;
}

void detail::skb_retire_tracked(std::uint64_t id) noexcept { ledger().erase(id); }

std::uint64_t skb_next_id() { return g_next_id; }

std::size_t skb_leak_check_since(std::uint64_t first_id, Site site)
{
    if (!hardened()) return 0;
    std::size_t leaks = 0;
    for (const auto& [id, rec] : ledger()) {
        if (id < first_id || rec.state == SkbState::Freed) continue;
        violate("skb-leak", id,
                std::string("still owned by ") + to_string(rec.state) +
                    " at teardown (origin " + rec.origin + ")",
                site, &rec);
        ++leaks;
    }
    return leaks;
}

std::size_t skb_live_count() { return ledger().size(); }

void report_packet_oob(const char* kind, std::size_t offset, std::size_t want,
                       std::size_t pkt_len, std::size_t headroom, std::size_t cap,
                       std::uint64_t skb_id, Site site)
{
    const std::size_t tail_cap = cap - headroom; // bytes addressable from data()
    const bool wraps = want > tail_cap || offset > tail_cap - want;
    const char* region;
    if (offset > pkt_len) {
        region = wraps ? "starts past the packet data and runs off the buffer"
                       : "starts past the packet data, in tailroom";
    } else {
        region = wraps ? "runs off the end of the buffer" : "runs into tailroom";
    }

    Violation v;
    v.checker = (kind[0] == 'w') ? "packet-oob-write" : "packet-oob-read";
    v.message = std::string("checked ") + kind + " of " + std::to_string(want) +
                " byte(s) at offset " + std::to_string(offset) +
                " exceeds packet length " + std::to_string(pkt_len) + " — " + region;
    if (skb_id != 0) v.message += " (skb #" + std::to_string(skb_id) + ")";
    v.site = site;
    if (skb_id != 0) {
        auto it = ledger().find(skb_id);
        if (it != ledger().end()) v.history = format_history(it->second);
    }
    report(std::move(v));
}

} // namespace ovsx::san

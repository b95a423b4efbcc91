#include "kern/ct_table.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/headers.h"
#include "obs/appctl.h"
#include "san/audit.h"

namespace ovsx::kern {

std::string CtTuple::to_string() const
{
    std::ostringstream os;
    os << net::ipv4_to_string(src) << ":" << sport << ">" << net::ipv4_to_string(dst) << ":"
       << dport << "/" << int(proto) << " zone=" << zone;
    return os.str();
}

std::string CtSnapshotEntry::to_string() const
{
    std::ostringstream os;
    os << "orig{" << orig.to_string() << "} reply{" << reply.to_string() << "}"
       << " confirmed=" << confirmed << " seen_reply=" << seen_reply << " nat=" << nat
       << " mark=" << mark << " packets=" << packets;
    return os.str();
}

CtTuple nat_reply_tuple(const CtTuple& tuple, const NatSpec& nat, std::uint16_t port)
{
    CtTuple reply = tuple.reversed();
    if (!nat.enabled) return reply;
    if (nat.snat) {
        // Replies will come addressed to the NAT source.
        if (nat.ip) reply.dst = nat.ip;
        if (port) reply.dport = port;
    } else {
        // DNAT: replies originate from the translated destination.
        if (nat.ip) reply.src = nat.ip;
        if (port) reply.sport = port;
    }
    return reply;
}

namespace {

std::uint32_t clamp_shards(std::uint32_t n)
{
    std::uint32_t p = 1;
    while (p < n && p < CtTable::kMaxShards) p <<= 1;
    return p;
}

} // namespace

std::uint32_t CtTable::shard_of_tuple(const CtTuple& t, std::uint32_t nshards)
{
    if (nshards <= 1) return 0;
    // Symmetric (direction-invariant) RSS-style hash: each endpoint is
    // mixed independently and the two are combined commutatively, so a
    // tuple and its reverse land in the same shard — only NAT-translated
    // reply tuples can cross shards.
    constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t a =
        CtTuple::Hash::mix(kSeed ^ ((static_cast<std::uint64_t>(t.src) << 16) | t.sport));
    const std::uint64_t b =
        CtTuple::Hash::mix(kSeed ^ ((static_cast<std::uint64_t>(t.dst) << 16) | t.dport));
    const std::uint64_t h =
        CtTuple::Hash::mix((a + b) ^ ((static_cast<std::uint64_t>(t.proto) << 16) | t.zone));
    return static_cast<std::uint32_t>(h) & (nshards - 1);
}

CtTable::CtTable(const CtTableNames& names, std::uint32_t shards)
    : names_(names), zones_mu_(names.zones_lock)
{
    build_shards(clamp_shards(shards));
    obs_token_ = obs::memory_register(names_.table, [this] {
        // Same rendered fields as the single-map reporter; per-shard
        // sums taken one shard lock at a time (no global freeze).
        std::size_t conns = 0, index = 0, nat = 0;
        for (const auto& s : shards_) {
            sync::LockGuard guard(s->mu);
            conns += s->conns.size();
            index += s->index.size();
            for (const auto& [id, e] : s->conns) {
                if (e.nat) ++nat;
            }
        }
        obs::Value v = obs::Value::object();
        v.set("connections", static_cast<std::uint64_t>(conns));
        v.set("index_entries", static_cast<std::uint64_t>(index));
        v.set("nat_bindings", static_cast<std::uint64_t>(nat));
        return v;
    });
    shards_token_ = obs::shards_register(names_.table, [this] {
        obs::Value v = obs::Value::object();
        v.set("shard_count", static_cast<std::uint64_t>(nshards_));
        obs::Value occ = obs::Value::array();
        for (const auto& s : shards_) {
            sync::LockGuard guard(s->mu);
            occ.push(static_cast<std::uint64_t>(s->conns.size()));
        }
        v.set("occupancy", std::move(occ));
        return v;
    });
}

CtTable::~CtTable()
{
    obs::shards_unregister(shards_token_);
    obs::memory_unregister(obs_token_);
    san::audit_clear(san_scope_, names_.entry_ledger);
    san::audit_clear(san_scope_, names_.nat_ledger);
}

void CtTable::build_shards(std::uint32_t n)
{
    ShardArray next;
    next.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        next.push_back(std::make_unique<Shard>(names_.shard_lock, i));
    }
    shards_ = std::move(next);
    nshards_ = n;
}

void CtTable::reshard(std::uint32_t n)
{
    const std::uint32_t target = clamp_shards(n);
    if (target == nshards_) return;
    // Drain every entry, sorted by id so the rebuilt indices and wheels
    // are filed in the original insertion order — end state stays
    // deterministic across reshard histories.
    std::vector<std::pair<std::uint64_t, CtEntry>> entries;
    {
        AllShardsGuard all(*this);
        for (const auto& s : shards_) {
            for (auto& [id, e] : s->conns) entries.emplace_back(id, e);
            s->index.clear();
            s->conns.clear();
            s->wheel.clear();
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    build_shards(target);
    for (auto& [id, e] : entries) {
        const std::uint32_t owner = shard_of(e.orig);
        Shard& osh = *shards_[owner];
        e.wheel_bucket = osh.wheel.enqueue(id, e.last_seen);
        osh.index.emplace(e.orig, Ref{owner, id});
        if (!(e.reply == e.orig)) shards_[shard_of(e.reply)]->index.emplace(e.reply, Ref{owner, id});
        osh.conns.emplace(id, std::move(e));
    }
}

std::size_t CtTable::shard_size(std::uint32_t s) const
{
    if (s >= nshards_) return 0;
    sync::LockGuard guard(shards_[s]->mu);
    return shards_[s]->conns.size();
}

std::size_t CtTable::nat_binding_count() const
{
    std::size_t n = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        for (const auto& [id, e] : s->conns) {
            if (e.nat) ++n;
        }
    }
    return n;
}

std::size_t CtTable::size() const
{
    std::size_t n = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        n += s->conns.size();
    }
    return n;
}

void CtTable::flush()
{
    AllShardsGuard all(*this);
    for (const auto& s : shards_) {
        OVSX_SAN_ACCESS_AT(s.get(), names_.table, true);
        s->index.clear();
        s->conns.clear();
        s->wheel.clear();
    }
    {
        sync::LockGuard zguard(zones_mu_);
        zone_counts_.clear();
    }
    san::audit_clear(san_scope_, names_.entry_ledger);
    san::audit_clear(san_scope_, names_.nat_ledger);
}

void CtTable::san_check(san::Site site) const
{
    // Walk every shard under one consistent global acquisition: the
    // audit ledgers are table-wide, so the totals they are checked
    // against must be a single coherent sum, shard-count-invariant.
    AllShardsGuard all(*this);
    std::size_t conns = 0, nat = 0;
    for (const auto& s : shards_) {
        conns += s->conns.size();
        for (const auto& [id, e] : s->conns) {
            if (e.nat) ++nat;
        }
    }
    san::audit_expect_size(san_scope_, names_.entry_ledger, conns, site);
    san::audit_expect_size(san_scope_, names_.nat_ledger, nat, site);
}

bool CtTable::local_path_ok(const CtTuple& lookup, bool icmp_error, const net::FlowKey& key,
                            const CtSpec& spec, std::uint32_t home) const
{
    Shard& s = *shards_[home];
    auto idx = s.index.find(lookup);
    if (icmp_error) {
        // RELATED lookups only read the cited entry: local unless the
        // hit refers to a connection owned by another shard.
        return idx == s.index.end() || idx->second.shard == home;
    }
    const bool is_rst = key.nw_proto == 6 && (key.tcp_flags & net::kTcpRst) != 0;
    if (idx != s.index.end()) {
        const Ref ref = idx->second;
        if (ref.shard != home) return false;
        if (is_rst) {
            // Teardown erases both index directions; the NAT-translated
            // reply may live in another shard.
            const auto it = s.conns.find(ref.id);
            if (it == s.conns.end()) return false;
            if (shard_of(it->second.reply) != home) return false;
        }
        return true;
    }
    if (is_rst) return true; // miss + RST → INVALID, touches no state
    if (!(spec.nat.enabled && spec.commit)) {
        // Reply tuple is the plain reverse — symmetric hash, same shard.
        return true;
    }
    if (spec.nat.port_min != 0) {
        // Port allocation probes the union of every shard's index.
        return false;
    }
    return shard_of(nat_reply_tuple(lookup, spec.nat, 0)) == home;
}

std::uint16_t CtTable::alloc_nat_port_routed(const CtTuple& tuple, const NatSpec& nat) const
{
    // Probing the shard each candidate routes to is exactly the
    // single-map union probe. Scanning from port_min every time keeps
    // allocation order identical across independently built datapaths
    // — the end-state diff depends on it.
    const std::uint16_t lo = nat.port_min;
    const std::uint16_t hi = std::max(nat.port_max, lo);
    for (std::uint32_t p = lo; p <= hi; ++p) {
        const CtTuple cand = nat_reply_tuple(tuple, nat, static_cast<std::uint16_t>(p));
        const Shard& csh = *shards_[shard_of(cand)];
        if (csh.index.find(cand) == csh.index.end()) return static_cast<std::uint16_t>(p);
    }
    return 0;
}

CtEntry& CtTable::insert_routed(std::uint32_t home, const CtEntry& entry, sim::Nanos now)
{
    Shard& tsh = *shards_[home];
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto [it, ok] = tsh.conns.emplace(id, entry);
    (void)ok;
    CtEntry& e = it->second;
    e.wheel_bucket = tsh.wheel.enqueue(id, now);
    san::audit_add(san_scope_, names_.entry_ledger, id, OVSX_SITE);
    if (e.nat) san::audit_add(san_scope_, names_.nat_ledger, id, OVSX_SITE);
    tsh.index.emplace(e.orig, Ref{home, id});
    if (!(e.reply == e.orig)) shards_[shard_of(e.reply)]->index.emplace(e.reply, Ref{home, id});
    return e;
}

void CtTable::erase_routed(const Ref& ref)
{
    Shard& osh = *shards_[ref.shard];
    auto it = osh.conns.find(ref.id);
    if (it == osh.conns.end()) return;
    shards_[shard_of(it->second.orig)]->index.erase(it->second.orig);
    shards_[shard_of(it->second.reply)]->index.erase(it->second.reply);
    release_zone_slot(it->second.orig.zone);
    san::audit_remove(san_scope_, names_.entry_ledger, ref.id, OVSX_SITE);
    if (it->second.nat) san::audit_remove(san_scope_, names_.nat_ledger, ref.id, OVSX_SITE);
    osh.conns.erase(it);
    // The wheel node (if any) stays behind as a stale tombstone; the
    // expiry liveness check drops it.
}

bool CtTable::reserve_zone_slot(std::uint16_t zone)
{
    sync::LockGuard guard(zones_mu_);
    std::size_t& count = zone_counts_[zone];
    const auto lim = zone_limits_.find(zone);
    if (lim != zone_limits_.end() && lim->second != 0 && count >= lim->second) return false;
    ++count;
    return true;
}

void CtTable::release_zone_slot(std::uint16_t zone)
{
    sync::LockGuard guard(zones_mu_);
    auto& count = zone_counts_[zone];
    if (count > 0) --count;
}

void CtTable::set_zone_limit(std::uint16_t zone, std::size_t limit)
{
    sync::LockGuard guard(zones_mu_);
    zone_limits_[zone] = limit;
}

std::size_t CtTable::zone_count(std::uint16_t zone) const
{
    sync::LockGuard guard(zones_mu_);
    auto it = zone_counts_.find(zone);
    return it == zone_counts_.end() ? 0 : it->second;
}

std::size_t CtTable::expire_idle(sim::Nanos cutoff)
{
    using Wheel = TimerWheel<std::uint64_t>;
    std::size_t removed = 0;
    std::size_t visited = 0;
    // Entries due for expiry whose reply index lives in another shard:
    // erasing them needs more than this shard's lock, so they are
    // collected and re-checked under a global acquisition below.
    std::vector<Ref> cross;
    for (std::uint32_t si = 0; si < nshards_; ++si) {
        Shard& s = *shards_[si];
        sync::LockGuard guard(s.mu);
        OVSX_SAN_ACCESS_AT(&s, names_.table, true);
        const Wheel::ExpireStats st = s.wheel.expire(cutoff, [&](std::uint64_t id,
                                                                 std::uint64_t bucket) {
            auto it = s.conns.find(id);
            if (it == s.conns.end()) return Wheel::Verdict::Stale; // entry already gone
            CtEntry& e = it->second;
            if (e.wheel_bucket != bucket) return Wheel::Verdict::Stale; // refiled since
            if (e.last_seen >= cutoff) return Wheel::Verdict::Keep;     // boundary survivor
            if (shard_of(e.reply) != si) {
                cross.push_back(Ref{si, id});
                return Wheel::Verdict::Stale; // node dropped; erased in pass 2
            }
            // Erase the NAT-translated reply tuple, not orig.reversed():
            // for NATed connections they differ, and a stale reply index
            // entry would pin the allocated port forever.
            s.index.erase(e.orig);
            s.index.erase(e.reply);
            release_zone_slot(e.orig.zone);
            san::audit_remove(san_scope_, names_.entry_ledger, id, OVSX_SITE);
            if (e.nat) san::audit_remove(san_scope_, names_.nat_ledger, id, OVSX_SITE);
            s.conns.erase(it);
            ++removed;
            return Wheel::Verdict::Expired;
        });
        visited += st.visited;
    }
    if (!cross.empty()) {
        AllShardsGuard all(*this);
        for (const auto& s : shards_) OVSX_SAN_ACCESS_AT(s.get(), names_.table, true);
        for (const Ref& ref : cross) {
            Shard& osh = *shards_[ref.shard];
            auto it = osh.conns.find(ref.id);
            if (it == osh.conns.end()) continue;
            CtEntry& e = it->second;
            if (e.last_seen >= cutoff) {
                // Refreshed between the passes; its wheel node was
                // dropped above, so file it again.
                e.wheel_bucket = osh.wheel.enqueue(ref.id, e.last_seen);
                continue;
            }
            erase_routed(ref);
            ++removed;
        }
    }
    last_expire_visited_.store(visited, std::memory_order_relaxed);
    if (visited > 0) OVSX_COVERAGE_N("ct.wheel.visited", visited);
    if (removed > 0) OVSX_COVERAGE_N("ct.wheel.expired", removed);
    return removed;
}

void CtTable::tick(sim::Nanos now)
{
    // At most one pass per wheel quantum: repeat calls inside the same
    // ~1ms virtual bucket are a single relaxed load + compare.
    const std::uint64_t bucket =
        static_cast<std::uint64_t>(now) >> TimerWheel<std::uint64_t>::kDefaultTickShift;
    std::uint64_t prev = last_tick_bucket_.load(std::memory_order_relaxed);
    if (prev == bucket) return;
    if (!last_tick_bucket_.compare_exchange_strong(prev, bucket, std::memory_order_relaxed)) {
        return; // another thread owns this quantum's pass
    }
    OVSX_COVERAGE("ct.shard.ticks");
    std::size_t total = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        total += s->conns.size();
    }
    if (total > 0) OVSX_COVERAGE_N("ct.shard.occupancy", total);
    const sim::Nanos timeout = idle_timeout_.load();
    if (timeout > 0 && now >= timeout) expire_idle(now - timeout);
}

const CtEntry* CtTable::find(const CtTuple& tuple) const
{
    const std::uint32_t s = shard_of(tuple);
    {
        sync::LockGuard guard(shards_[s]->mu);
        OVSX_SAN_ACCESS_AT(shards_[s].get(), names_.table, false);
        auto idx = shards_[s]->index.find(tuple);
        if (idx == shards_[s]->index.end()) return nullptr;
        if (idx->second.shard == s) {
            auto it = shards_[s]->conns.find(idx->second.id);
            return it == shards_[s]->conns.end() ? nullptr : &it->second;
        }
    }
    // The index entry refers to a connection owned by another shard
    // (NAT-translated reply direction): resolve ref → entry under a
    // consistent global acquisition.
    AllShardsGuard all(*this);
    auto idx = shards_[s]->index.find(tuple);
    if (idx == shards_[s]->index.end()) return nullptr;
    Shard& osh = *shards_[idx->second.shard];
    auto it = osh.conns.find(idx->second.id);
    return it == osh.conns.end() ? nullptr : &it->second;
}

bool CtTable::set_mark(const CtTuple& tuple, std::uint32_t mark)
{
    const std::uint32_t s = shard_of(tuple);
    {
        sync::LockGuard guard(shards_[s]->mu);
        auto idx = shards_[s]->index.find(tuple);
        if (idx == shards_[s]->index.end()) return false;
        if (idx->second.shard == s) {
            OVSX_SAN_ACCESS_AT(shards_[s].get(), names_.table, true);
            shards_[s]->conns[idx->second.id].mark = mark;
            return true;
        }
    }
    AllShardsGuard all(*this);
    auto idx = shards_[s]->index.find(tuple);
    if (idx == shards_[s]->index.end()) return false;
    OVSX_SAN_ACCESS_AT(shards_[idx->second.shard].get(), names_.table, true);
    shards_[idx->second.shard]->conns[idx->second.id].mark = mark;
    return true;
}

bool CtTable::test_seam_leak_entry(const CtTuple& tuple)
{
    AllShardsGuard all(*this);
    Shard& tsh = *shards_[shard_of(tuple)];
    auto idx = tsh.index.find(tuple);
    if (idx == tsh.index.end()) return false;
    const Ref ref = idx->second;
    Shard& osh = *shards_[ref.shard];
    auto it = osh.conns.find(ref.id);
    if (it == osh.conns.end()) return false;
    // Deliberately skip the audit_remove calls: the entry vanishes from
    // the table while the ledgers still claim it — san_check must flag
    // the mismatch regardless of which shard held the entry.
    shards_[shard_of(it->second.orig)]->index.erase(it->second.orig);
    shards_[shard_of(it->second.reply)]->index.erase(it->second.reply);
    osh.conns.erase(it);
    return true;
}

std::vector<CtSnapshotEntry> CtTable::snapshot() const
{
    // One shard lock at a time: a dump under churn never freezes the
    // whole table. Sorting by orig tuple afterwards makes the merged
    // view byte-identical to the single-map rendering.
    std::vector<CtSnapshotEntry> out;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        OVSX_SAN_ACCESS_AT(s.get(), names_.table, false);
        out.reserve(out.size() + s->conns.size());
        for (const auto& [id, e] : s->conns) {
            out.push_back(
                {e.orig, e.reply, e.confirmed, e.seen_reply, e.nat.has_value(), e.mark, e.packets});
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace ovsx::kern

// The sharded connection table under both conntracks.
//
// The paper's §6 lesson is that the userspace datapath had to rewrite
// the kernel's conntrack. What had to be written twice is the state
// machine: kern::Conntrack and ovs::UserspaceConntrack each keep their
// own process()/apply_nat(), and the differential harness diffs their
// tables entry by entry. The table those machines run over is
// bookkeeping, not semantics, and lives here once: the shards with
// their indices and timer wheels, the all-shards guard, shard routing,
// zone limits and counts, id and NAT-port allocation, reshard, expiry,
// snapshots, the san walk and the appctl reporters. Each tracker passes
// its own observable names (CtTableNames), so locks, memory/show,
// shards/show and audit ledgers read exactly as before.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "kern/odp.h" // CtSpec / NatSpec
#include "kern/timer_wheel.h"
#include "net/flow.h"
#include "obs/coverage.h"
#include "san/lockset.h"
#include "san/report.h"
#include "sim/time.h"
#include "sync/mutex.h"

namespace ovsx::kern {

struct CtTuple {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    std::uint8_t proto = 0;
    std::uint16_t zone = 0;

    friend bool operator==(const CtTuple&, const CtTuple&) = default;

    CtTuple reversed() const { return {dst, src, dport, sport, proto, zone}; }

    static CtTuple from_key(const net::FlowKey& key, std::uint16_t zone)
    {
        return {key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, key.nw_proto, zone};
    }

    struct Hash {
        static std::uint64_t mix(std::uint64_t x)
        {
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ULL;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebULL;
            x ^= x >> 31;
            return x;
        }
        std::size_t operator()(const CtTuple& t) const
        {
            // Every field feeds the splitmix finalizer on its own, in
            // order, so no two fields can cancel by XOR: a tuple, its
            // reverse, and zone-swapped variants all hash differently
            // (the old XOR-fold collided e.g. {src=0x10000, sport=0}
            // with {src=0, sport=1}).
            std::uint64_t h = mix(0x9e3779b97f4a7c15ULL ^ t.src);
            h = mix(h + t.dst);
            h = mix(h + ((static_cast<std::uint64_t>(t.sport) << 16) | t.dport));
            h = mix(h + ((static_cast<std::uint64_t>(t.proto) << 16) | t.zone));
            return static_cast<std::size_t>(h);
        }
    };

    friend bool operator<(const CtTuple& a, const CtTuple& b)
    {
        return std::tie(a.zone, a.src, a.dst, a.sport, a.dport, a.proto) <
               std::tie(b.zone, b.src, b.dst, b.sport, b.dport, b.proto);
    }

    std::string to_string() const;
};

// One live NAT translation on a connection. The allocated port lives in
// the reply tuple's index entry: the reply tuple leaving the index is
// what frees the port for reallocation.
struct NatBinding {
    bool snat = false;
    std::uint32_t ip = 0;
    std::uint16_t port = 0;
};

// Implementation-neutral view of one tracked connection, used by the
// differential harness to diff conntrack tables across datapaths.
struct CtSnapshotEntry {
    CtTuple orig;
    CtTuple reply; // reversed orig with any NAT translation applied
    bool confirmed = false;
    bool seen_reply = false;
    bool nat = false;
    std::uint32_t mark = 0;
    std::uint64_t packets = 0;

    friend bool operator==(const CtSnapshotEntry&, const CtSnapshotEntry&) = default;
    friend bool operator<(const CtSnapshotEntry& a, const CtSnapshotEntry& b)
    {
        return a.orig < b.orig;
    }

    std::string to_string() const;
};

struct CtEntry {
    CtTuple orig;
    CtTuple reply;          // reversed orig with any NAT translation applied
    bool confirmed = false; // committed by a ct(commit) action
    bool seen_reply = false;
    std::uint8_t tcp_flags_seen = 0; // OR of TCP flags (userspace tracker only)
    std::uint32_t mark = 0;
    std::optional<NatBinding> nat;
    std::uint64_t packets = 0;
    sim::Nanos last_seen = 0;
    // Timer-wheel bucket this entry was last filed into (expiry
    // liveness check; TimerWheel::kNoBucket before the first filing).
    std::uint64_t wheel_bucket = ~std::uint64_t{0};
};

// The translated reply tuple for a connection whose original direction
// is `tuple` under `nat` (with `port` already allocated; 0 = keep).
// Shared by both state machines and the port allocator, so reply-index
// keys and port-allocation decisions cannot drift between trackers.
CtTuple nat_reply_tuple(const CtTuple& tuple, const NatSpec& nat, std::uint16_t port);

// The observable names of one tracker's table. String literals only:
// the locks and the san checker keep the pointers.
struct CtTableNames {
    const char* shard_lock;   // shard mutexes are "<shard_lock>.<i>"
    const char* zones_lock;   // the zone-accounting mutex
    const char* table;        // memory/show, shards/show and san access label
    const char* entry_ledger; // san audit ledger of tracked connections
    const char* nat_ledger;   // san audit ledger of NAT bindings
};

// Concurrency: sharded by a symmetric (direction-invariant) RSS-style
// hash of the connection tuple. Each shard owns an index/conns pair and
// a timer wheel under its own capability-annotated mutex; a connection
// lives in the shard of its ORIG tuple, and because the shard hash is
// symmetric, the un-NATed reply direction lands in the same shard — so
// non-NAT traffic runs entirely under one shard lock. Anything whose
// NAT-translated reply tuple crosses shards (port/IP translation,
// cross-shard RST teardown, port-range allocation probing the union of
// all indices) takes the deterministic slow path: every shard lock in
// ascending index order (construction order makes the ids ascend too,
// so the ABBA DAG stays acyclic), then the exact single-map algorithm
// against the union. Zone counts/limits stay global under their own
// lock, nested inside the shard locks. End state is bit-identical at
// any shard count.
//
// find() and the entries the state machines hand out are interior
// pointers, stable only until the next mutating call; snapshot()
// copies for longer-lived use.
class CtTable {
public:
    static constexpr std::uint32_t kMaxShards = 64;

    CtTable(const CtTable&) = delete;
    CtTable& operator=(const CtTable&) = delete;

    // Per-zone connection limit (0 = unlimited). Connections beyond the
    // limit are classified INVALID instead of NEW.
    void set_zone_limit(std::uint16_t zone, std::size_t limit) OVSX_EXCLUDES(zones_mu_);
    std::size_t zone_count(std::uint16_t zone) const OVSX_EXCLUDES(zones_mu_);

    // Number of tracked connections (not tuple directions).
    std::size_t size() const;
    std::size_t nat_binding_count() const;
    void flush();

    // Cross-checks the san entry + NAT-binding audits against the
    // table, walking every shard so the totals are shard-count-
    // invariant.
    void san_check(san::Site site) const;

    // Expires entries idle since before `cutoff` off the per-shard
    // timer wheels: visits only due wheel buckets, never the whole
    // table. NAT reply-index entries (and therefore allocated ports)
    // are released on this path.
    std::size_t expire_idle(sim::Nanos cutoff);

    // Lookup without side effects (diagnostics). Finds by either
    // direction of the connection (NAT-translated for replies).
    const CtEntry* find(const CtTuple& tuple) const;

    // Sets the mark on the connection matching `tuple` (ct_mark action).
    bool set_mark(const CtTuple& tuple, std::uint32_t mark);

    // Deterministically ordered view of every tracked connection, for
    // cross-datapath state diffing. Snapshots shard by shard under each
    // shard's own lock (no global freeze) and merges; the rendered
    // shape is identical at any shard count.
    std::vector<CtSnapshotEntry> snapshot() const;

    // ---- sharding / expiry configuration --------------------------------
    // Rebuilds the table over `n` shards (rounded up to a power of two,
    // capped at kMaxShards). Existing entries are rehashed; intended
    // for configuration time — concurrent process() calls during a
    // reshard are not supported.
    void reshard(std::uint32_t n);
    std::uint32_t shard_count() const { return nshards_; }
    // Connections owned by shard `s` (occupancy gauges).
    std::size_t shard_size(std::uint32_t s) const;
    // The shard a tuple routes to; symmetric in direction, exposed so
    // tests can place entries deliberately.
    static std::uint32_t shard_of_tuple(const CtTuple& tuple, std::uint32_t nshards);

    // Idle timeout driven by tick(); 0 (default) disables expiry there.
    void set_idle_timeout(sim::Nanos timeout) { idle_timeout_.store(timeout); }
    sim::Nanos idle_timeout() const { return idle_timeout_.load(); }

    // Datapath clock hook (set_now): at most once per wheel quantum,
    // publishes the ct.shard.* occupancy counters and — when an idle
    // timeout is configured — expires idle entries. Amortized: each
    // call does per-shard O(due wheel nodes) work, never O(entries).
    void tick(sim::Nanos now);

    // Wheel nodes visited by the most recent expiry pass (the churn
    // bench asserts this stays bounded per tick).
    std::size_t last_expire_visited() const { return last_expire_visited_.load(); }

    // Test seam (negative san tests only): drops the entry for `tuple`
    // from its shard WITHOUT updating the audit ledgers — san_check
    // must then report the leak no matter which shard held it.
    bool test_seam_leak_entry(const CtTuple& tuple);

protected:
    // A base only: each tracker constructs it with its own names.
    CtTable(const CtTableNames& names, std::uint32_t shards);
    ~CtTable();

    struct Ref { // index value: owning shard + connection id
        std::uint32_t shard = 0;
        std::uint64_t id = 0;
    };

    // Runs `fn(home)` — one state machine's pass over the table — under
    // the locks that pass needs. `lookup` is the tuple of the first
    // index probe (the ICMP-cited inner tuple for ICMP errors, the
    // packet tuple otherwise); `home` is its shard. Inline so the
    // per-packet path makes no indirect call.
    template <typename Fn>
    auto routed(const CtTuple& lookup, bool icmp_error, const net::FlowKey& key,
                const CtSpec& spec, Fn&& fn)
    {
        const std::uint32_t home = shard_of(lookup);
        if (nshards_ > 1) {
            // Fast path: one shard lock. local_path_ok proves (under that
            // lock) that every tuple this packet touches routes to `home`.
            sync::LockGuard guard(shards_[home]->mu);
            if (local_path_ok(lookup, icmp_error, key, spec, home)) {
                OVSX_SAN_ACCESS_AT(shards_[home].get(), names_.table, true);
                return fn(home);
            }
        }
        // Slow path (NAT crossing shards, cross-shard teardown, port-range
        // allocation, or a single-shard table): all shard locks, ascending.
        if (nshards_ > 1) OVSX_COVERAGE("ct.cross_shard");
        AllShardsGuard all(*this);
        for (const auto& s : shards_) OVSX_SAN_ACCESS_AT(s.get(), names_.table, true);
        return fn(home);
    }

    // ---- routed helpers: only inside routed(), whose locks cover every
    // tuple they touch (hence no static analysis) ------------------------

    // The connection `tuple` indexes (either direction), or nullptr.
    CtEntry* lookup_routed(const CtTuple& tuple, std::uint32_t home, Ref& ref)
        OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        Shard& s = *shards_[home];
        const auto idx = s.index.find(tuple);
        if (idx == s.index.end()) return nullptr;
        ref = idx->second;
        return &shards_[ref.shard]->conns[ref.id];
    }
    // Refiles a live connection seen at `now` on its shard's wheel.
    void touch_routed(const Ref& ref, CtEntry& e, sim::Nanos now) OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        e.last_seen = now;
        e.wheel_bucket = shards_[ref.shard]->wheel.touch(ref.id, e.wheel_bucket, now);
    }
    // Deterministic NAT port allocation: the first port in the spec's
    // range whose translated reply tuple is untracked, or 0 when the
    // range is exhausted.
    std::uint16_t alloc_nat_port_routed(const CtTuple& tuple, const NatSpec& nat) const
        OVSX_NO_THREAD_SAFETY_ANALYSIS;
    // Files a new connection into shard `home` under a fresh id and
    // indexes both directions. The zone slot must already be reserved.
    CtEntry& insert_routed(std::uint32_t home, const CtEntry& entry, sim::Nanos now)
        OVSX_NO_THREAD_SAFETY_ANALYSIS;
    // Erases a connection, both index directions and its zone slot.
    void erase_routed(const Ref& ref) OVSX_NO_THREAD_SAFETY_ANALYSIS;

    // Checks the zone limit and counts the new connection in one
    // acquisition, so concurrent creators cannot overshoot the limit.
    // False when the zone is full; a reservation whose connection is
    // then not inserted must be released.
    bool reserve_zone_slot(std::uint16_t zone) OVSX_EXCLUDES(zones_mu_);
    void release_zone_slot(std::uint16_t zone) OVSX_EXCLUDES(zones_mu_);

private:
    // One shard: a slice of the tuple index, the connections it owns,
    // and the timer wheel those connections are filed into, all under
    // one capability-annotated mutex with a stable per-index name.
    struct Shard {
        Shard(const char* lock_prefix, std::uint32_t i) : mu(sync::shard_lock_name(lock_prefix, i))
        {
        }

        sync::Mutex mu;
        // Both tuple directions index into one connection entry
        // (possibly in another shard for NAT-translated replies); the
        // reply direction carries the NAT translation, so it is NOT
        // orig.reversed() for NATed connections.
        std::unordered_map<CtTuple, Ref, CtTuple::Hash> index OVSX_GUARDED_BY(mu);
        std::unordered_map<std::uint64_t, CtEntry> conns OVSX_GUARDED_BY(mu);
        TimerWheel<std::uint64_t> wheel OVSX_GUARDED_BY(mu);
    };

    // Locks every shard in ascending index order. Shard mutexes are
    // constructed in index order, so their lock ids ascend with the
    // index and this acquisition order can never invert the ABBA DAG
    // against a single-shard holder or another AllShardsGuard.
    class AllShardsGuard {
    public:
        explicit AllShardsGuard(const CtTable& t) OVSX_NO_THREAD_SAFETY_ANALYSIS : t_(t)
        {
            for (const auto& s : t_.shards_) s->mu.lock();
        }
        ~AllShardsGuard() OVSX_NO_THREAD_SAFETY_ANALYSIS
        {
            for (auto it = t_.shards_.rbegin(); it != t_.shards_.rend(); ++it) (*it)->mu.unlock();
        }
        AllShardsGuard(const AllShardsGuard&) = delete;
        AllShardsGuard& operator=(const AllShardsGuard&) = delete;

    private:
        const CtTable& t_;
    };

    std::uint32_t shard_of(const CtTuple& tuple) const
    {
        return shard_of_tuple(tuple, nshards_);
    }

    // Decides, under shard `home`'s lock alone, whether this packet can
    // complete without touching any other shard.
    bool local_path_ok(const CtTuple& lookup, bool icmp_error, const net::FlowKey& key,
                       const CtSpec& spec, std::uint32_t home) const
        OVSX_NO_THREAD_SAFETY_ANALYSIS;
    void build_shards(std::uint32_t n);

    const CtTableNames names_;
    // The shard array itself is immutable while the datapath runs: it
    // is built at construction and replaced only by config-time
    // reshard() (single-threaded by contract). Everything inside a
    // Shard is guarded by that shard's own mutex.
    using ShardArray = std::vector<std::unique_ptr<Shard>>;
    std::uint32_t nshards_ = 1;
    ShardArray shards_;
    mutable sync::Mutex zones_mu_;
    std::unordered_map<std::uint16_t, std::size_t> zone_counts_ OVSX_GUARDED_BY(zones_mu_);
    std::unordered_map<std::uint16_t, std::size_t> zone_limits_ OVSX_GUARDED_BY(zones_mu_);
    // Global, never reused: allocation order (and therefore snapshots)
    // stays identical across shard counts.
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<sim::Nanos> idle_timeout_{0};
    std::atomic<std::uint64_t> last_tick_bucket_{~std::uint64_t{0}};
    std::atomic<std::size_t> last_expire_visited_{0};
    std::uint64_t san_scope_ = san::new_scope();
    std::uint64_t obs_token_ = 0;
    std::uint64_t shards_token_ = 0;
};

} // namespace ovsx::kern

// Megaflow cache: the second-level cache of the userspace datapath — a
// tuple-space-search classifier over wildcard masks, populated by
// ofproto translations on upcall. The structure the eBPF datapath could
// not express (§2.2.2, footnote 1).
//
// Concurrency: the classifier is sharded by the masked-key hash (the
// same RSS-style routing the conntracks use), one capability-annotated
// mutex per shard ("ovs.megaflow.shard.<i>"). Lookups take NO lock:
// each shard publishes an immutable subtable skeleton through an
// atomic pointer and readers pin a sync/epoch.h domain for the length
// of the probe, so a whole batch classifies lock-free while writers
// copy-on-write individual hash buckets under their shard's lock.
// Structural changes (a new mask, rerank, clear, expire) lock every
// shard in ascending order and republish every skeleton so the probe
// order stays identical across shards. Shard 0's skeleton is the probe
// -order oracle: a reader that catches another shard mid-republish
// skips the torn subtable (a safe miss) instead of blocking.
//
// Probe layout: each subtable carries a net::MaskPlan built once from
// its mask. The plan hashes only the mask's non-zero 64-bit lanes and
// is bit-identical to FlowMask::masked_hash (in the key hash a zero
// lane only multiplies the running hash by a constant, so each run of
// zero lanes folds into one precomputed power), so bucket slots and
// shard routes are the masked-hash values they always were. A bucket
// is one allocation holding its entries' 64-bit masked hashes and then
// their flows; a probe compares hashes and dereferences a CachedFlow
// only on an equal one, so a miss touches the slot and one bucket and
// a hit touches one flow. A slice regroups at one flow per slot into
// four times the slots, moving each flow with its stored hash. When
// the key's shard is the oracle (always, with one shard), the probe
// skips the torn-skeleton mask comparison.
//
// Determinism contract: at any shard count, single-threaded semantics
// are bit-identical to the old single-mutex classifier — same probe
// counts, same dedupe/replace behaviour, same rerank order, same
// expiry set. The differential harness diffs end states across shard
// counts {1,4,16} to hold this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ovs/emc.h"
#include "san/lockset.h"
#include "san/report.h"
#include "sync/epoch.h"
#include "sync/mutex.h"

namespace ovsx::ovs {

class MegaflowCache {
public:
    static constexpr std::uint32_t kMaxShards = 64;

    struct LookupResult {
        CachedFlowPtr flow; // null on miss
        int probes = 0;     // subtables probed (drives lookup cost)
    };

    explicit MegaflowCache(std::uint32_t shards = 1);
    ~MegaflowCache();

    // Lock-free (epoch-pinned) classification of one key; applies the
    // hit/miss and subtable-ranking stats through atomics.
    OVSX_HOT LookupResult lookup(const net::FlowKey& key);

    // Stats-free classification of a whole burst in one subtable-major
    // pass: each subtable's mask is applied to every still-unresolved
    // key before moving to the next subtable, so the mask and its
    // buckets stay hot across the vector (the VPP trick). Flows and
    // probe counts match what per-packet lookup() would report; the
    // hit/miss and ranking stats are not touched. The datapath
    // classifies with lookup(); the wall-clock benchmark's per-layer
    // replay, bench_mt_smoke and the shard model tests call this.
    // Lock-free: the batch runs under one epoch pin, no shard lock.
    OVSX_HOT void lookup_batch(const net::FlowKey* const keys[], std::size_t n,
                               LookupResult out[]) const;

    // Installs a flow; replaces an existing identical masked entry.
    CachedFlowPtr insert(const net::FlowKey& key, const net::FlowMask& mask,
                         kern::OdpActions actions);

    bool remove(const net::FlowKey& key, const net::FlowMask& mask);
    void clear();

    std::size_t flow_count() const;
    std::size_t mask_count() const;
    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

    // Moves frequently-hit subtables toward the front of the probe
    // order (OVS's subtable ranking optimisation). Call periodically.
    void rerank();

    // Removes flows whose hit counter has not moved since the last
    // sweep (the revalidator's idle-flow expiry). Returns flows removed.
    std::size_t expire_idle();

    // Cross-checks the san table audit against the real cache, walking
    // every shard so the totals are shard-count-invariant.
    void san_check(san::Site site) const;

    // Visits all flows together with their subtable mask, under every
    // shard lock; `fn` must not call back into this cache.
    void for_each_entry(
        const std::function<void(const CachedFlow&, const net::FlowMask&)>& fn) const;

    // ---- sharding configuration -----------------------------------------
    // Power-of-two shard count (clamped to kMaxShards); config-time
    // only — the rebuild assumes no concurrent readers or writers.
    void reshard(std::uint32_t n);
    std::uint32_t shard_count() const { return nshards_; }
    // Flows resident in shard `s` (occupancy counters / shards/show).
    std::size_t shard_flow_count(std::uint32_t s) const;

    // Test seam (negative lockset tests only): probes the classifier
    // WITHOUT taking the shard lock and WITHOUT an epoch pin — the
    // deliberately unguarded access the Eraser checker must catch when
    // another thread uses the locked write API. Returns the subtable
    // count it raced over.
    std::size_t test_seam_unguarded_probe() const OVSX_NO_THREAD_SAFETY_ANALYSIS;

private:
    struct Shard;      // per-shard lock + published skeleton (megaflow.cpp)
    struct ShardState; // immutable subtable skeleton
    struct BucketArray;
    struct Bucket;
    class AllShardsGuard;

    // Immutable while the datapath runs: built at construction,
    // replaced only by config-time reshard(). Per-shard state is
    // guarded by each Shard's mutex or published via atomics.
    using ShardArray = std::vector<std::unique_ptr<Shard>>;

    // Routing: low hash bits pick the shard, the bits above them pick
    // the bucket slot — sharing low bits would leave every shard using
    // only 1/nshards of its slots.
    std::uint32_t shard_of_hash(std::uint64_t h) const
    {
        return static_cast<std::uint32_t>(h) & (nshards_ - 1);
    }

    // The flow of subtable `r` matching `key`, whose masked hash is `h`,
    // in `st`, the state of the shard `h` routes to; null on a miss. A
    // miss touches the slot and one bucket, a hit one flow.
    OVSX_HOT const CachedFlowPtr* probe(const ShardState* oracle, const ShardState* st,
                                        std::size_t r, std::uint64_t h,
                                        const net::FlowKey& key) const;
    CachedFlowPtr insert_into(std::uint32_t s, std::size_t r, const net::FlowKey& masked,
                              std::uint64_t h, const net::FlowMask& mask,
                              CachedFlowPtr flow) OVSX_NO_THREAD_SAFETY_ANALYSIS;
    void publish_state(std::uint32_t s, const ShardState* next) OVSX_NO_THREAD_SAFETY_ANALYSIS;
    std::size_t flow_count_all_locked() const OVSX_NO_THREAD_SAFETY_ANALYSIS;

    std::uint32_t nshards_ = 1;
    std::uint32_t shard_shift_ = 0; // log2(nshards_)
    ShardArray shards_;
    // Reclamation domain for retired skeletons/buckets: writers retire,
    // readers pin. Mutable so const (reader) methods can pin.
    mutable sync::EpochDomain epoch_domain_{"ovs.megaflow"};
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::uint64_t san_scope_ = san::new_scope();
    std::uint64_t shards_token_ = 0;
};

} // namespace ovsx::ovs

// Megaflow cache: the second-level cache of the userspace datapath — a
// tuple-space-search classifier over wildcard masks, populated by
// ofproto translations on upcall. The structure the eBPF datapath could
// not express (§2.2.2, footnote 1).
//
// Concurrency: the classifier is sharded by the masked-key hash (the
// same RSS-style routing the conntracks use), one capability-annotated
// reader/writer lock per shard ("ovs.megaflow.shard.<i>") over that
// shard's subtables. Every shard holds the same masks in the same probe
// order, because structural changes (a new mask, rerank, clear, expire)
// lock every shard exclusively in ascending order. So a lookup holds
// shard 0's lock shared for the whole probe (shard 0's subtable order
// is the probe order) and takes the routed shard's lock shared for each
// probe that lands on another shard, and a batch takes every shard's
// lock shared once. Writers change subtables in place under their
// shard's exclusive lock and free what they replace at once, so a
// reader never sees an unlinked flow. Readers and writers both mark
// their shard for the lockset checker.
//
// Probe layout: each subtable carries a net::MaskPlan built once from
// its mask, and each shard holds the subtable's flows in one
// net::SlotTable of {masked hash, flow} slots, homed by the hash bits
// above the shard bits. The plan hashes only the mask's non-zero 64-bit
// lanes and is bit-identical to FlowMask::masked_hash (in the key hash
// a zero lane only multiplies the running hash by a constant, so each
// run of zero lanes folds into one precomputed power), so slot homes
// and shard routes are the masked-hash values they always were. A probe
// compares the stored hashes along one run and dereferences a
// CachedFlow only on an equal one, so a miss reads slots only and a hit
// touches one flow.
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

    // Classifies one key under the shard reader locks; applies the
    // hit/miss and subtable-ranking stats through atomics.
    OVSX_HOT LookupResult lookup(const net::FlowKey& key);

    // Stats-free classification of a whole burst in one subtable-major
    // pass: each subtable's mask is applied to every still-unresolved
    // key before moving to the next subtable, so the mask and its
    // slots stay hot across the vector (the VPP trick). Flows and
    // probe counts match what per-packet lookup() would report; the
    // hit/miss and ranking stats are not touched. The datapath
    // classifies with lookup(); the wall-clock benchmark's per-layer
    // replay, bench_mt_smoke and the shard model tests call this.
    // Takes every shard's lock shared, in ascending order, once per batch.
    OVSX_HOT void lookup_batch(const net::FlowKey* const keys[], std::size_t n,
                               LookupResult out[]) const;

    // Installs a flow; replaces an existing identical masked entry,
    // whose flow is marked dead as a removed one is.
    CachedFlowPtr insert(const net::FlowKey& key, const net::FlowMask& mask,
                         kern::OdpActions actions);

    bool remove(const net::FlowKey& key, const net::FlowMask& mask);
    void clear();

    // One relaxed counter that writers keep: no lock (the datapath reads
    // it per packet).
    std::size_t flow_count() const { return flows_.load(std::memory_order_relaxed); }
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
    // WITHOUT taking the shard lock — the deliberately unguarded access
    // the Eraser checker must catch when another thread uses the locked
    // write API. Returns the subtable count it raced over.
    std::size_t test_seam_unguarded_probe() const OVSX_NO_THREAD_SAFETY_ANALYSIS;

private:
    struct Shard; // per-shard lock + subtables (megaflow.cpp)
    struct Sub;   // one subtable's flows in one shard
    class AllShardsGuard;

    // Immutable while the datapath runs: built at construction,
    // replaced only by config-time reshard(). Per-shard state is
    // guarded by each Shard's lock.
    using ShardArray = std::vector<std::unique_ptr<Shard>>;

    // Routing: low hash bits pick the shard, the bits above them pick
    // the home slot — sharing low bits would leave every shard using
    // only 1/nshards of its slots.
    std::uint32_t shard_of_hash(std::uint64_t h) const
    {
        return static_cast<std::uint32_t>(h) & (nshards_ - 1);
    }

    // The flow of `sub`, as held by the shard `h` routes to, matching
    // `key`, whose masked hash is `h`; null on a miss. A miss reads
    // slots only, a hit one flow.
    OVSX_HOT const CachedFlowPtr* probe(const Sub& sub, std::uint64_t h,
                                        const net::FlowKey& key) const;
    // Runs under the exclusive lock of the shard that holds `sub`.
    CachedFlowPtr insert_into(Sub& sub, const net::FlowKey& masked, std::uint64_t h,
                              const net::FlowMask& mask, CachedFlowPtr flow);
    // Runs under every shard's lock.
    std::size_t flow_count_all_locked() const;

    std::uint32_t nshards_ = 1;
    std::uint32_t shard_shift_ = 0; // log2(nshards_)
    ShardArray shards_;
    std::atomic<std::size_t> flows_{0}; // flow_count(): writers keep it
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::uint64_t san_scope_ = san::new_scope();
    std::uint64_t shards_token_ = 0;
};

} // namespace ovsx::ovs

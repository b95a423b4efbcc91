// Exact Match Cache: the first-level per-PMD cache of the userspace
// datapath. A small, fixed-size, 2-way set-associative table from full
// flow keys to cached flow entries. This is the cache whose kernel
// equivalent the Linux maintainers rejected (§2.1), forcing it to live
// in userspace.
//
// Concurrency: today each PMD owns its Emc, but the scale-out plan
// shares revalidator sweeps across PMDs, so the table is capability-
// annotated and internally locked like the other shared tables: one
// mutex ("ovs.emc") over the ways and the hit/miss stats, taken by
// every public method. Entry pointers returned by lookup() stay valid
// through shared ownership (CachedFlowPtr), not through the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "kern/odp.h"
#include "net/flow.h"
#include "san/lockset.h"
#include "sync/mutex.h"

namespace ovsx::ovs {

// A cached datapath flow: the masked key it represents plus its actions.
struct CachedFlow {
    net::FlowKey masked_key;
    net::FlowMask mask;
    kern::OdpActions actions;
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hits_at_last_sweep = 0; // revalidator idle detection
    // Revalidator tombstone. Atomic: set under a megaflow shard lock
    // but read by the cache's lock-free epoch-pinned lookups.
    std::atomic<bool> dead{false};
};

using CachedFlowPtr = std::shared_ptr<CachedFlow>;

class Emc {
public:
    static constexpr std::uint32_t kDefaultEntries = 8192; // per PMD, as in OVS
    static constexpr int kWays = 2;

    explicit Emc(std::uint32_t entries = kDefaultEntries);

    // Looks up a full (unmasked) key. Returns nullptr on miss. The
    // pointer stays valid while the flow is referenced by the cache or
    // the caller still holds its CachedFlowPtr (shared ownership).
    OVSX_HOT CachedFlow* lookup(const net::FlowKey& key, std::uint64_t hash)
        OVSX_EXCLUDES(mu_);

    // As lookup(), but returns a shared reference so action execution
    // survives a nested upcall's flow_put or a revalidator sweep
    // invalidating the entry mid-execution.
    OVSX_HOT CachedFlowPtr lookup_ref(const net::FlowKey& key, std::uint64_t hash)
        OVSX_EXCLUDES(mu_);

    // Inserts a full key -> flow association (on megaflow hit, so the
    // next packet of this microflow short-circuits).
    void insert(const net::FlowKey& key, std::uint64_t hash, CachedFlowPtr flow)
        OVSX_EXCLUDES(mu_);

    // Drops entries pointing at dead flows; returns how many were swept.
    std::size_t sweep() OVSX_EXCLUDES(mu_);

    void clear() OVSX_EXCLUDES(mu_);

    // Repoints the cache at a new power-of-two geometry, dropping every
    // entry and stat (the Mutex member makes Emc non-assignable, so
    // reconfiguration mutates in place instead of rebuilding).
    void resize(std::uint32_t entries) OVSX_EXCLUDES(mu_);

    std::uint32_t capacity() const OVSX_EXCLUDES(mu_);
    std::uint64_t hits() const OVSX_EXCLUDES(mu_);
    std::uint64_t misses() const OVSX_EXCLUDES(mu_);
    // Number of live entries — the lookup working set. Large working
    // sets spill out of the CPU caches, which is what degrades the
    // 1000-flow rows of Fig. 9 relative to single-flow.
    std::uint32_t occupancy() const OVSX_EXCLUDES(mu_);

private:
    struct Entry {
        bool valid = false;
        std::uint64_t hash = 0;
        net::FlowKey key;
        CachedFlowPtr flow;
    };

    mutable sync::Mutex mu_{"ovs.emc"};
    std::uint32_t entries_ OVSX_GUARDED_BY(mu_);
    std::uint32_t mask_ OVSX_GUARDED_BY(mu_);
    std::vector<Entry> table_ OVSX_GUARDED_BY(mu_);
    std::uint64_t hits_ OVSX_GUARDED_BY(mu_) = 0;
    std::uint64_t misses_ OVSX_GUARDED_BY(mu_) = 0;
    std::uint32_t occupancy_ OVSX_GUARDED_BY(mu_) = 0;
};

} // namespace ovsx::ovs

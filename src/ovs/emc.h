// Exact Match Cache: the first-level cache of the userspace datapath. A
// small, fixed-size, 2-way set-associative table from full flow keys to
// cached flow entries. This is the cache whose kernel equivalent the
// Linux maintainers rejected (§2.1), forcing it to live in userspace.
//
// Ownership: as in OVS, every PMD owns its EMC (DpifNetdev::Pmd), and
// only the thread running that PMD touches it, so the table takes no
// lock. The flows it points at are CachedFlows of the same PMD's
// megaflow cache (kern/megaflow.h): entry pointers returned by lookup()
// stay valid through shared ownership (CachedFlowPtr), and a flow the
// megaflow cache unlinks is evicted at its next probe through its
// `dead` flag.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "ovs/megaflow.h"
#include "sync/annotations.h"

namespace ovsx::ovs {

class Emc {
public:
    static constexpr std::uint32_t kDefaultEntries = 8192; // per PMD, as in OVS
    static constexpr int kWays = 2;

    explicit Emc(std::uint32_t entries = kDefaultEntries);

    // Looks up a full (unmasked) key. Returns nullptr on miss. The
    // pointer stays valid while the flow is referenced by the cache or
    // the caller still holds its CachedFlowPtr (shared ownership).
    OVSX_HOT CachedFlow* lookup(const net::FlowKey& key, std::uint64_t hash);

    // As lookup(), but returns a shared reference so action execution
    // survives a nested upcall's flow_put or a revalidator sweep
    // invalidating the entry mid-execution.
    OVSX_HOT CachedFlowPtr lookup_ref(const net::FlowKey& key, std::uint64_t hash);

    // Inserts a full key -> flow association (on megaflow hit, so the
    // next packet of this microflow short-circuits).
    void insert(const net::FlowKey& key, std::uint64_t hash, CachedFlowPtr flow);

    // Drops entries pointing at dead flows; returns how many were swept.
    std::size_t sweep();

    void clear();

    std::uint32_t capacity() const { return entries_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    // Number of live entries — the lookup working set. Large working
    // sets spill out of the CPU caches, which is what degrades the
    // 1000-flow rows of Fig. 9 relative to single-flow.
    std::uint32_t occupancy() const { return occupancy_; }

private:
    struct Entry {
        bool valid = false;
        std::uint64_t hash = 0;
        net::FlowKey key;
        CachedFlowPtr flow;
    };

    std::uint32_t entries_;
    std::uint32_t mask_;
    std::vector<Entry> table_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint32_t occupancy_ = 0;

    // The one probe of both lookups: the live way holding `key`, or null.
    // Counts the hit or miss and evicts a matching way whose flow died.
    OVSX_NO_ALLOC const Entry* probe(const net::FlowKey& key, std::uint64_t hash);
};

} // namespace ovsx::ovs

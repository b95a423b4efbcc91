// Megaflow cache: a tuple-space-search classifier over wildcard masks,
// populated by ofproto translations on upcall. The megaflow cache began
// in the kernel module, and the userspace datapath keeps the same one;
// the eBPF datapath could not express it (§2.2.2, footnote 1). Its two
// users each own theirs, and only the thread running the owner touches
// it, so the classifier takes no lock and keeps plain counters:
//   - the kernel module (OvsKernelDatapath) holds its flow table in one
//     and probes the most specific mask first
//     (order_most_specific_first after each put that adds a mask);
//   - as OVS's dpcls, every PMD of the userspace datapath owns one
//     (DpifNetdev::Pmd) beside its EMC, and reranks it by hits.
//
// Probe layout: one subtable per mask, in probe order. Each carries a
// net::MaskPlan built once from its mask and holds its flows in one
// net::SlotTable of {masked hash, flow} slots. The plan hashes only the
// mask's non-zero 64-bit lanes and is bit-identical to
// FlowMask::masked_hash (in the key hash a zero lane only multiplies
// the running hash by a constant, so each run of zero lanes folds into
// one precomputed power), so slot homes are the masked-hash values they
// always were. A probe compares the stored hashes along one run and
// dereferences a CachedFlow only on an equal one, so a miss reads slots
// only and a hit touches one flow.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kern/odp.h"
#include "net/flow.h"
#include "net/slot_table.h"
#include "san/report.h"
#include "sync/annotations.h"

namespace ovsx::kern {

// One installed megaflow: the masked key it represents plus its
// actions. Held by shared_ptr: a lookup result stays valid while its
// packet executes, even when execution re-enters insert, which
// replaces the flow or grows its table; an EMC entry shares it too.
struct CachedFlow {
    net::FlowKey masked_key;
    OdpActions actions;
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hits_at_last_sweep = 0; // revalidator idle detection
    // Tombstone, set when the cache that holds the flow unlinks or
    // replaces it, and read by the same PMD's EMC. One thread runs
    // both; the flag stays atomic so a revalidator on its own thread
    // could set it.
    std::atomic<bool> dead{false};
};

using CachedFlowPtr = std::shared_ptr<CachedFlow>;

class MegaflowCache {
public:
    struct LookupResult {
        CachedFlowPtr flow; // null on miss
        int probes = 0;     // subtables probed (drives lookup cost)
    };

    MegaflowCache() = default;
    // Clears the cache's san audit scope, so a cache is never copied or
    // moved: its owner holds it where it stays.
    ~MegaflowCache();
    MegaflowCache(const MegaflowCache&) = delete;
    MegaflowCache& operator=(const MegaflowCache&) = delete;

    // Classifies one key; counts the hit or miss and the answering
    // subtable's hit for ranking.
    OVSX_HOT LookupResult lookup(const net::FlowKey& key);

    // Stats-free classification of a whole burst in one subtable-major
    // pass: each subtable's mask is applied to every still-unresolved
    // key before moving to the next subtable, so the mask and its
    // slots stay hot across the vector (the VPP trick). Flows and
    // probe counts match what per-packet lookup() would report; the
    // hit/miss and ranking stats are not touched. The datapaths
    // classify with lookup(); the wall-clock benchmark's per-layer
    // replay and the model tests call this.
    OVSX_HOT void lookup_batch(const net::FlowKey* const keys[], std::size_t n,
                               LookupResult out[]) const;

    // Installs a flow; replaces an existing identical masked entry,
    // whose flow is marked dead as a removed one is. A new mask is
    // probed last.
    CachedFlowPtr insert(const net::FlowKey& key, const net::FlowMask& mask,
                         OdpActions actions);

    bool remove(const net::FlowKey& key, const net::FlowMask& mask);
    void clear();

    std::size_t flow_count() const { return flows_; }
    std::size_t mask_count() const { return subs_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    // Puts the subtables in order of mask specificity, most exact bytes
    // first: the kernel module's probe order.
    void order_most_specific_first();

    // Moves frequently-hit subtables toward the front of the probe
    // order (OVS's subtable ranking optimisation). Call periodically.
    void rerank();

    // Removes flows whose hit counter has not moved since the last
    // sweep (the revalidator's idle-flow expiry). Returns flows removed.
    std::size_t expire_idle();

    // Cross-checks the san table audit against the real cache.
    void san_check(san::Site site) const;

    // Visits all flows together with their subtable mask, subtables in
    // probe order; `fn` must not call back into this cache.
    void for_each_entry(
        const std::function<void(const CachedFlow&, const net::FlowMask&)>& fn) const;

private:
    // One subtable: the flows of one mask. Probe-side members first: a
    // probe reads the flows, the plan and, on a hit, the hit count; the
    // full mask is for writers.
    struct Sub {
        net::SlotTable<CachedFlowPtr> flows;
        std::uint64_t hit_count = 0; // lookups it answered since the last rerank
        net::MaskPlan plan;
        net::FlowMask mask;
    };

    // The flow of `sub` matching `key`, whose masked hash is `h`; null
    // on a miss.
    OVSX_HOT const CachedFlowPtr* probe(const Sub& sub, std::uint64_t h,
                                        const net::FlowKey& key) const;
    // Forgets a flow being unlinked: marks it dead and drops its audit.
    void unlink(CachedFlow& flow, const net::FlowMask& mask);

    std::vector<Sub> subs_; // in probe order
    std::size_t flows_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t san_scope_ = san::new_scope();
};

} // namespace ovsx::kern

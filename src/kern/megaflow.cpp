#include "kern/megaflow.h"

#include <algorithm>
#include <utility>

#include "san/audit.h"

namespace ovsx::kern {

MegaflowCache::~MegaflowCache() { san::audit_clear(san_scope_, "mfc.flow"); }

const CachedFlowPtr* MegaflowCache::probe(const Sub& sub, std::uint64_t h,
                                          const net::FlowKey& key) const
{
    return sub.flows.find(
        h, [&](const CachedFlowPtr& flow) { return sub.plan.matches(key, flow->masked_key); });
}

MegaflowCache::LookupResult MegaflowCache::lookup(const net::FlowKey& key)
{
    LookupResult res;
    for (Sub& sub : subs_) {
        ++res.probes;
        if (const CachedFlowPtr* flow = probe(sub, sub.plan.hash(key), key)) {
            res.flow = *flow;
            ++hits_;
            ++sub.hit_count;
            return res;
        }
    }
    ++misses_;
    return res;
}

void MegaflowCache::lookup_batch(const net::FlowKey* const keys[], std::size_t n,
                                 LookupResult out[]) const
{
    for (std::size_t i = 0; i < n; ++i) out[i] = LookupResult{};
    std::size_t unresolved = n;
    for (std::size_t r = 0; r < subs_.size() && unresolved > 0; ++r) {
        const Sub& sub = subs_[r];
        for (std::size_t i = 0; i < n; ++i) {
            if (out[i].flow) continue;
            ++out[i].probes;
            if (const CachedFlowPtr* flow = probe(sub, sub.plan.hash(*keys[i]), *keys[i])) {
                out[i].flow = *flow;
                --unresolved;
            }
        }
    }
}

CachedFlowPtr MegaflowCache::insert(const net::FlowKey& key, const net::FlowMask& mask,
                                    OdpActions actions)
{
    const net::FlowKey masked = mask.apply(key);
    const std::uint64_t h = masked.hash();
    auto flow = std::make_shared<CachedFlow>();
    flow->masked_key = masked;
    flow->actions = std::move(actions);
    // Fresh flows get one sweep of grace before idle expiry applies.
    flow->hits_at_last_sweep = ~std::uint64_t{0};

    auto sub = std::find_if(subs_.begin(), subs_.end(),
                            [&](const Sub& s) { return s.mask == mask; });
    if (sub == subs_.end()) {
        // A new mask is probed last until its owner reorders the cache.
        subs_.push_back(Sub{{}, 0, net::MaskPlan(mask), mask});
        sub = subs_.end() - 1;
    }
    // An identical masked entry is replaced in place, and the flow it
    // held dies like a removed one, so an EMC entry still pointing at it
    // misses and falls through to the new flow.
    if (CachedFlowPtr* same = sub->flows.find(
            h, [&](const CachedFlowPtr& f) { return f->masked_key == masked; })) {
        (*same)->dead.store(true, std::memory_order_release);
        *same = flow;
        return flow;
    }
    sub->flows.insert(h, flow);
    ++flows_;
    if (san::hardened()) {
        san::audit_add(san_scope_, "mfc.flow", net::flow_audit_key(masked, mask), OVSX_SITE);
    }
    return flow;
}

void MegaflowCache::unlink(CachedFlow& flow, const net::FlowMask& mask)
{
    flow.dead.store(true, std::memory_order_release);
    if (san::hardened()) {
        san::audit_remove(san_scope_, "mfc.flow", net::flow_audit_key(flow.masked_key, mask),
                          OVSX_SITE);
    }
}

bool MegaflowCache::remove(const net::FlowKey& key, const net::FlowMask& mask)
{
    const net::FlowKey masked = mask.apply(key);
    for (Sub& sub : subs_) {
        if (!(sub.mask == mask)) continue;
        const CachedFlowPtr gone = sub.flows.erase(
            masked.hash(), [&](const CachedFlowPtr& f) { return f->masked_key == masked; });
        if (!gone) return false;
        unlink(*gone, mask);
        --flows_;
        return true;
    }
    return false;
}

void MegaflowCache::clear()
{
    for (const Sub& sub : subs_) {
        sub.flows.for_each([](std::uint64_t, const CachedFlowPtr& f) {
            f->dead.store(true, std::memory_order_release);
        });
    }
    subs_.clear();
    flows_ = 0;
    san::audit_clear(san_scope_, "mfc.flow");
}

std::size_t MegaflowCache::expire_idle()
{
    std::size_t removed = 0;
    for (Sub& sub : subs_) {
        removed += sub.flows.retain([&](const CachedFlowPtr& f) {
            CachedFlow& flow = *f;
            if (flow.hits != flow.hits_at_last_sweep) {
                flow.hits_at_last_sweep = flow.hits; // grace consumed
                return true;
            }
            unlink(flow, sub.mask);
            return false;
        });
    }
    flows_ -= removed;
    return removed;
}

void MegaflowCache::order_most_specific_first()
{
    std::sort(subs_.begin(), subs_.end(), [](const Sub& a, const Sub& b) {
        return a.mask.exact_bytes() > b.mask.exact_bytes();
    });
}

void MegaflowCache::rerank()
{
    // A stable sort by hits since the last rerank, whose counters then
    // restart; empty subtables drop out so dead masks stop costing probes.
    std::stable_sort(subs_.begin(), subs_.end(),
                     [](const Sub& a, const Sub& b) { return a.hit_count > b.hit_count; });
    std::erase_if(subs_, [](const Sub& s) { return s.flows.size() == 0; });
    for (Sub& sub : subs_) sub.hit_count = 0;
}

void MegaflowCache::san_check(san::Site site) const
{
    std::size_t resident = 0;
    for (const Sub& sub : subs_) resident += sub.flows.size();
    san::audit_expect_size(san_scope_, "mfc.flow", resident, site);
}

void MegaflowCache::for_each_entry(
    const std::function<void(const CachedFlow&, const net::FlowMask&)>& fn) const
{
    for (const Sub& sub : subs_) {
        sub.flows.for_each([&](std::uint64_t, const CachedFlowPtr& f) { fn(*f, sub.mask); });
    }
}

} // namespace ovsx::kern

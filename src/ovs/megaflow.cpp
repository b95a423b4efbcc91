#include "ovs/megaflow.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "net/slot_table.h"
#include "obs/appctl.h"
#include "obs/coverage.h"
#include "san/audit.h"

namespace ovsx::ovs {

// Per-mask statistics, shared by every shard's part of the subtable
// so ranking and flow counts are shard-count-invariant. Defined at
// namespace scope (not anonymous) because Sub members name it.
struct MegaflowSubtableStats {
    std::atomic<std::uint64_t> hit_count{0};
    std::atomic<std::size_t> size{0}; // flows under this mask, all shards
};

// One subtable as one shard holds it. Every shard's `subs` has the same
// masks in the same order, which is what lets shard 0's order be the
// probe order. Probe-side members first: a probe reads the flows, the
// plan and, on a hit, the stats; the full mask is for writers.
struct MegaflowCache::Sub {
    net::SlotTable<CachedFlowPtr> flows;          // this shard's flows of the mask
    std::shared_ptr<MegaflowSubtableStats> stats; // shared across shards
    net::MaskPlan plan;                           // built once per subtable
    net::FlowMask mask;
};

struct MegaflowCache::Shard {
    explicit Shard(std::uint32_t i) : mu(sync::shard_lock_name("ovs.megaflow.shard", i)) {}
    // A later shard at this address starts with a clean lockset record.
    ~Shard() { san::lockset::forget(this); }

    // Readers hold mu shared, writers exclusively.
    sync::SharedMutex mu;
    std::vector<Sub> subs;
};

// Locks every shard in ascending index order, exclusively or shared.
// Shard locks are constructed in index order, so their lock ids ascend
// with the index and this acquisition order can never invert the ABBA
// DAG against a single-shard holder, a lookup (shard 0, then one other)
// or another AllShardsGuard.
class MegaflowCache::AllShardsGuard {
public:
    explicit AllShardsGuard(const MegaflowCache& mf, bool shared = false)
        OVSX_NO_THREAD_SAFETY_ANALYSIS : mf_(mf), shared_(shared)
    {
        for (const auto& s : mf_.shards_) {
            if (shared_) {
                s->mu.lock_shared();
            } else {
                s->mu.lock();
            }
        }
    }
    ~AllShardsGuard() OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        for (auto it = mf_.shards_.rbegin(); it != mf_.shards_.rend(); ++it) {
            if (shared_) {
                (*it)->mu.unlock_shared();
            } else {
                (*it)->mu.unlock();
            }
        }
    }
    AllShardsGuard(const AllShardsGuard&) = delete;
    AllShardsGuard& operator=(const AllShardsGuard&) = delete;

private:
    const MegaflowCache& mf_;
    const bool shared_;
};

namespace {

std::uint32_t clamp_shards(std::uint32_t n)
{
    std::uint32_t p = 1;
    while (p < n && p < MegaflowCache::kMaxShards) p <<= 1;
    return p;
}

std::uint32_t log2_pow2(std::uint32_t n)
{
    std::uint32_t s = 0;
    while ((1u << s) < n) ++s;
    return s;
}

} // namespace

MegaflowCache::MegaflowCache(std::uint32_t shards)
{
    nshards_ = clamp_shards(shards);
    shard_shift_ = log2_pow2(nshards_);
    shards_.reserve(nshards_);
    for (std::uint32_t i = 0; i < nshards_; ++i) shards_.push_back(std::make_unique<Shard>(i));
    shards_token_ = obs::shards_register("ovs.megaflow", [this] {
        obs::Value v = obs::Value::object();
        v.set("shard_count", static_cast<std::uint64_t>(nshards_));
        obs::Value occ = obs::Value::array();
        for (std::uint32_t s = 0; s < nshards_; ++s) {
            occ.push(static_cast<std::uint64_t>(shard_flow_count(s)));
        }
        v.set("occupancy", std::move(occ));
        return v;
    });
}

MegaflowCache::~MegaflowCache()
{
    obs::shards_unregister(shards_token_);
    san::audit_clear(san_scope_, "mfc.flow");
}

const CachedFlowPtr* MegaflowCache::probe(const Sub& sub, std::uint64_t h,
                                          const net::FlowKey& key) const
{
    return sub.flows.find(
        h, [&](const CachedFlowPtr& flow) { return sub.plan.matches(key, flow->masked_key); });
}

MegaflowCache::LookupResult MegaflowCache::lookup(const net::FlowKey& key)
{
    // Shard 0's lock, held shared for the whole probe, pins the probe
    // order: every structural change needs it exclusively.
    LookupResult res;
    Shard& oracle = *shards_[0];
    sync::SharedLockGuard guard(oracle.mu);
    OVSX_SAN_ACCESS_AT(&oracle, "ovs.megaflow", false);
    for (std::size_t r = 0; r < oracle.subs.size(); ++r) {
        const Sub& sub = oracle.subs[r];
        ++res.probes;
        const std::uint64_t h = sub.plan.hash(key);
        const std::uint32_t s = shard_of_hash(h);
        if (s == 0) {
            if (const CachedFlowPtr* flow = probe(sub, h, key)) res.flow = *flow;
        } else {
            Shard& sh = *shards_[s];
            sync::SharedLockGuard routed(sh.mu);
            OVSX_SAN_ACCESS_AT(&sh, "ovs.megaflow", false);
            if (const CachedFlowPtr* flow = probe(sh.subs[r], h, key)) res.flow = *flow;
        }
        if (res.flow) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            sub.stats->hit_count.fetch_add(1, std::memory_order_relaxed);
            return res;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return res;
}

void MegaflowCache::lookup_batch(const net::FlowKey* const keys[], std::size_t n,
                                 LookupResult out[]) const
{
    for (std::size_t i = 0; i < n; ++i) out[i] = LookupResult{};
    AllShardsGuard guard(*this, /*shared=*/true);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", false);
    const std::vector<Sub>& order = shards_[0]->subs;
    std::size_t unresolved = n;
    for (std::size_t r = 0; r < order.size() && unresolved > 0; ++r) {
        const net::MaskPlan& plan = order[r].plan;
        for (std::size_t i = 0; i < n; ++i) {
            if (out[i].flow) continue;
            ++out[i].probes;
            const std::uint64_t h = plan.hash(*keys[i]);
            const Sub& sub = shards_[shard_of_hash(h)]->subs[r];
            if (const CachedFlowPtr* flow = probe(sub, h, *keys[i])) {
                out[i].flow = *flow;
                --unresolved;
            }
        }
    }
}

CachedFlowPtr MegaflowCache::insert_into(Sub& sub, const net::FlowKey& masked, std::uint64_t h,
                                         const net::FlowMask& mask, CachedFlowPtr flow)
{
    // An identical masked entry is replaced in place, and the flow it
    // held dies like a removed one, so an EMC entry still pointing at it
    // misses and falls through to the new flow.
    if (CachedFlowPtr* same = sub.flows.find(
            h, [&](const CachedFlowPtr& f) { return f->masked_key == masked; })) {
        (*same)->dead.store(true, std::memory_order_release);
        *same = flow;
        return flow;
    }
    sub.flows.insert(h, flow);
    sub.stats->size.fetch_add(1, std::memory_order_relaxed);
    flows_.fetch_add(1, std::memory_order_relaxed);
    if (san::hardened()) {
        san::audit_add(san_scope_, "mfc.flow", net::flow_audit_key(masked, mask), OVSX_SITE);
    }
    return flow;
}

CachedFlowPtr MegaflowCache::insert(const net::FlowKey& key, const net::FlowMask& mask,
                                    kern::OdpActions actions)
{
    const net::FlowKey masked = mask.apply(key);
    const std::uint64_t h = masked.hash();
    auto flow = std::make_shared<CachedFlow>();
    flow->masked_key = masked;
    flow->mask = mask;
    flow->actions = std::move(actions);
    // Fresh flows get one sweep of grace before idle expiry applies.
    flow->hits_at_last_sweep = ~std::uint64_t{0};

    Shard& sh = *shards_[shard_of_hash(h)];
    {
        // Fast path: the mask already has a subtable. The rank scan is
        // safe under one shard lock because structural ops (which move
        // ranks) hold every shard lock.
        sync::LockGuard guard(sh.mu);
        OVSX_SAN_ACCESS_AT(&sh, "ovs.megaflow", true);
        for (Sub& sub : sh.subs) {
            if (sub.mask == mask) return insert_into(sub, masked, h, mask, std::move(flow));
        }
    }

    // Slow path: a new mask appends a subtable to every shard so the
    // probe order stays identical across shards.
    AllShardsGuard guard(*this);
    for (const auto& s : shards_) OVSX_SAN_ACCESS_AT(s.get(), "ovs.megaflow", true);
    // Re-check: another writer may have added the mask between the
    // fast-path unlock and this all-shard lock.
    for (Sub& sub : sh.subs) {
        if (sub.mask == mask) return insert_into(sub, masked, h, mask, std::move(flow));
    }
    auto stats = std::make_shared<MegaflowSubtableStats>();
    const net::MaskPlan plan(mask);
    for (const auto& s : shards_) {
        s->subs.push_back(Sub{net::SlotTable<CachedFlowPtr>(shard_shift_), stats, plan, mask});
    }
    return insert_into(sh.subs.back(), masked, h, mask, std::move(flow));
}

bool MegaflowCache::remove(const net::FlowKey& key, const net::FlowMask& mask)
{
    const net::FlowKey masked = mask.apply(key);
    const std::uint64_t h = masked.hash();
    Shard& sh = *shards_[shard_of_hash(h)];
    sync::LockGuard guard(sh.mu);
    OVSX_SAN_ACCESS_AT(&sh, "ovs.megaflow", true);
    for (Sub& sub : sh.subs) {
        if (!(sub.mask == mask)) continue;
        const CachedFlowPtr gone =
            sub.flows.erase(h, [&](const CachedFlowPtr& f) { return f->masked_key == masked; });
        if (!gone) return false;
        gone->dead.store(true, std::memory_order_release);
        sub.stats->size.fetch_sub(1, std::memory_order_relaxed);
        flows_.fetch_sub(1, std::memory_order_relaxed);
        if (san::hardened()) {
            san::audit_remove(san_scope_, "mfc.flow", net::flow_audit_key(masked, mask),
                              OVSX_SITE);
        }
        return true;
    }
    return false;
}

void MegaflowCache::clear()
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    for (const auto& sh : shards_) {
        for (const Sub& sub : sh->subs) {
            sub.flows.for_each([](std::uint64_t, const CachedFlowPtr& f) {
                f->dead.store(true, std::memory_order_release);
            });
        }
        sh->subs.clear();
    }
    flows_.store(0, std::memory_order_relaxed);
    san::audit_clear(san_scope_, "mfc.flow");
}

std::size_t MegaflowCache::mask_count() const
{
    Shard& oracle = *shards_[0];
    sync::SharedLockGuard guard(oracle.mu);
    OVSX_SAN_ACCESS_AT(&oracle, "ovs.megaflow", false);
    return oracle.subs.size();
}

std::size_t MegaflowCache::shard_flow_count(std::uint32_t s) const
{
    if (s >= nshards_) return 0;
    Shard& sh = *shards_[s];
    sync::SharedLockGuard guard(sh.mu);
    OVSX_SAN_ACCESS_AT(&sh, "ovs.megaflow", false);
    std::size_t n = 0;
    for (const Sub& sub : sh.subs) n += sub.flows.size();
    return n;
}

std::size_t MegaflowCache::flow_count_all_locked() const
{
    std::size_t n = 0;
    for (const auto& sh : shards_) {
        for (const Sub& sub : sh->subs) n += sub.flows.size();
    }
    return n;
}

std::size_t MegaflowCache::expire_idle()
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    std::size_t removed = 0;
    for (const auto& sh : shards_) {
        for (Sub& sub : sh->subs) {
            const std::size_t expired = sub.flows.retain([&](const CachedFlowPtr& f) {
                CachedFlow& flow = *f;
                if (flow.hits != flow.hits_at_last_sweep) {
                    flow.hits_at_last_sweep = flow.hits; // grace consumed
                    return true;
                }
                flow.dead.store(true, std::memory_order_release);
                if (san::hardened()) {
                    san::audit_remove(san_scope_, "mfc.flow",
                                      net::flow_audit_key(flow.masked_key, sub.mask), OVSX_SITE);
                }
                return false;
            });
            removed += expired;
            sub.stats->size.fetch_sub(expired, std::memory_order_relaxed);
        }
    }
    flows_.fetch_sub(removed, std::memory_order_relaxed);
    return removed;
}

void MegaflowCache::rerank()
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    const std::vector<Sub>& order = shards_[0]->subs;
    const std::size_t nsubs = order.size();
    // Snapshot the counters so the sort comparator is stable, then
    // reset them for the next ranking window.
    std::vector<std::uint64_t> hit(nsubs);
    std::vector<std::size_t> size(nsubs);
    for (std::size_t r = 0; r < nsubs; ++r) {
        hit[r] = order[r].stats->hit_count.exchange(0, std::memory_order_relaxed);
        size[r] = order[r].stats->size.load(std::memory_order_relaxed);
    }
    std::vector<std::size_t> ranked(nsubs);
    std::iota(ranked.begin(), ranked.end(), std::size_t{0});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](std::size_t a, std::size_t b) { return hit[a] > hit[b]; });
    // Drop empty subtables so dead masks stop costing probes.
    std::vector<std::size_t> kept;
    kept.reserve(nsubs);
    for (const std::size_t r : ranked) {
        if (size[r] > 0) kept.push_back(r);
    }
    // Occupancy gauge, sampled once per revalidator cycle.
    std::size_t total = 0;
    for (const std::size_t r : kept) total += size[r];
    if (total > 0) OVSX_COVERAGE_N("mf.shard.occupancy", total);
    for (const auto& sh : shards_) {
        std::vector<Sub> next;
        next.reserve(kept.size());
        for (const std::size_t r : kept) next.push_back(std::move(sh->subs[r]));
        sh->subs = std::move(next);
    }
}

void MegaflowCache::san_check(san::Site site) const
{
    AllShardsGuard guard(*this);
    san::audit_expect_size(san_scope_, "mfc.flow", flow_count_all_locked(), site);
}

void MegaflowCache::for_each_entry(
    const std::function<void(const CachedFlow&, const net::FlowMask&)>& fn) const
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", false);
    for (const auto& sh : shards_) {
        for (const Sub& sub : sh->subs) {
            sub.flows.for_each(
                [&](std::uint64_t, const CachedFlowPtr& f) { fn(*f, sub.mask); });
        }
    }
}

void MegaflowCache::reshard(std::uint32_t n)
{
    const std::uint32_t target = clamp_shards(n);
    if (target == nshards_) return;

    // Config-time contract: no concurrent readers or writers, so the
    // shard array is swapped wholesale.
    const std::uint32_t shift = log2_pow2(target);
    ShardArray next;
    next.reserve(target);
    for (std::uint32_t i = 0; i < target; ++i) next.push_back(std::make_unique<Shard>(i));
    {
        AllShardsGuard guard(*this);
        // Every new shard gets every subtable in probe order, and each
        // flow moves with its stored hash to the shard the new routing
        // picks.
        for (const auto& sh : next) {
            for (const Sub& sub : shards_[0]->subs) {
                sh->subs.push_back(
                    Sub{net::SlotTable<CachedFlowPtr>(shift), sub.stats, sub.plan, sub.mask});
            }
        }
        for (const auto& sh : shards_) {
            for (std::size_t r = 0; r < sh->subs.size(); ++r) {
                sh->subs[r].flows.for_each([&](std::uint64_t h, const CachedFlowPtr& f) {
                    next[static_cast<std::uint32_t>(h) & (target - 1)]->subs[r].flows.insert(h, f);
                });
            }
        }
    }
    shards_ = std::move(next);
    nshards_ = target;
    shard_shift_ = shift;
}

std::size_t MegaflowCache::test_seam_unguarded_probe() const
{
    // Deliberately no lock: the lockset checker must observe this access
    // with an empty held set and flag the empty candidate intersection
    // against the locked write API's accesses on the same shard.
    OVSX_SAN_ACCESS_AT(shards_[0].get(), "ovs.megaflow", true);
    return shards_[0]->subs.size();
}

} // namespace ovsx::ovs

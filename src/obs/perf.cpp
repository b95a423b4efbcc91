#include "obs/perf.h"

#include <algorithm>
#include <limits>
#include <map>

#include "obs/coverage.h"
#include "sync/mutex.h"

namespace ovsx::obs {

const char* to_string(PerfStage s)
{
    switch (s) {
    case PerfStage::RxPoll: return "rx-poll";
    case PerfStage::EmcLookup: return "emc-lookup";
    case PerfStage::MegaflowLookup: return "megaflow-lookup";
    case PerfStage::Upcall: return "upcall";
    case PerfStage::Ct: return "ct";
    case PerfStage::Actions: return "actions";
    case PerfStage::Tx: return "tx";
    case PerfStage::Idle: return "idle";
    }
    return "?";
}

// --- registry -----------------------------------------------------------

namespace {

struct PerfRegistry {
    sync::Mutex mu{"obs.perf"};
    bool enabled OVSX_GUARDED_BY(mu) = true;
    // Latest instance wins per name (the harness rebuilds datapaths
    // with recurring PMD names; show renders the live generation).
    std::map<std::string, PmdPerf*> instances OVSX_GUARDED_BY(mu);
};

PerfRegistry& perf_registry()
{
    static PerfRegistry r;
    return r;
}

std::uint64_t perf_counter(const char* name)
{
    const auto id = coverage_find(name);
    return id ? coverage_value(*id) : 0;
}

// A quiet stretch decays an EWMA by (1 - alpha) per iteration. After
// about 1,450 iterations it would reach the smallest subnormal double
// and stay there (0.6 x 4.9e-324 rounds back to 4.9e-324), making every
// later iteration pay for subnormal arithmetic. Flushing to zero keeps
// every suspicion verdict: an upcall EWMA below 0.25 puts the threshold
// 4 x EWMA + 4 in [4, 5), so an integer count trips it exactly when it
// is 5 or more, subnormal EWMA or zero; and cycles/packet is either 0
// or at least 1/packets, far above 4 x DBL_MIN, so it exceeds four
// times a subnormal EWMA exactly when it exceeds zero.
double flush_subnormal(double ewma)
{
    return ewma < std::numeric_limits<double>::min() ? 0.0 : ewma;
}

} // namespace

bool perf_enabled()
{
    PerfRegistry& r = perf_registry();
    sync::LockGuard guard(r.mu);
    return r.enabled;
}

void perf_set_enabled(bool enabled)
{
    PerfRegistry& r = perf_registry();
    sync::LockGuard guard(r.mu);
    r.enabled = enabled;
}

std::shared_ptr<PmdPerf> perf_create(const std::string& name)
{
    if (!perf_enabled()) return nullptr;
    return std::make_shared<PmdPerf>(name);
}

Value perf_show()
{
    Value v = Value::object();
    v.set("iterations", perf_counter("perf.iterations"));
    v.set("packets", perf_counter("perf.packets"));
    v.set("suspicious", perf_counter("perf.suspicious"));
    Value pmds = Value::object();
    {
        PerfRegistry& r = perf_registry();
        sync::LockGuard guard(r.mu);
        for (const auto& [name, perf] : r.instances) {
            pmds.set(name, perf->to_value());
        }
    }
    v.set("pmds", std::move(pmds));
    return v;
}

Value perf_log_show()
{
    Value pmds = Value::object();
    {
        PerfRegistry& r = perf_registry();
        sync::LockGuard guard(r.mu);
        for (const auto& [name, perf] : r.instances) {
            pmds.set(name, perf->log_value());
        }
    }
    Value v = Value::object();
    v.set("pmds", std::move(pmds));
    return v;
}

// --- PmdPerf ------------------------------------------------------------

PmdPerf::PmdPerf(std::string name) : name_(std::move(name))
{
    PerfRegistry& r = perf_registry();
    sync::LockGuard guard(r.mu);
    r.instances[name_] = this;
}

PmdPerf::~PmdPerf()
{
    PerfRegistry& r = perf_registry();
    sync::LockGuard guard(r.mu);
    const auto it = r.instances.find(name_);
    if (it != r.instances.end() && it->second == this) r.instances.erase(it);
}

void PmdPerf::begin_iteration()
{
    in_iteration_ = true;
    iter_tsc_start_ = tsc_;
    iter_stage_start_ = stage_cycles_;
    iter_upcalls_ = 0;
    iter_doorbells_ = 0;
}

void PmdPerf::end_iteration(std::uint64_t packets)
{
    if (!in_iteration_) return;
    in_iteration_ = false;

    // Built in place in the flight ring, every field written (the slot
    // still holds the record of kPerfFlightDepth iterations ago).
    PerfIterationRecord& rec = ring_[ring_next_];
    rec.iter = ++iterations_;
    rec.tsc_start = iter_tsc_start_;
    rec.cycles = tsc_ - iter_tsc_start_;
    rec.packets = packets;
    rec.upcalls = iter_upcalls_;
    rec.doorbells = iter_doorbells_;
    rec.suspicious = false;
    for (std::size_t i = 0; i < kPerfStages; ++i) {
        rec.stage_cycles[i] = stage_cycles_[i] - iter_stage_start_[i];
    }
    // An empty poll is idle spin whatever rings it touched: fold the
    // iteration's stage cycles into idle, in the record and the
    // cumulative buckets alike, so stage percentages describe cycles
    // spent on packets.
    if (packets == 0) {
        constexpr std::size_t idle = static_cast<std::size_t>(PerfStage::Idle);
        for (std::size_t i = 0; i < kPerfStages; ++i) {
            if (i == idle) continue;
            stage_cycles_[idle] += rec.stage_cycles[i];
            stage_cycles_[i] -= rec.stage_cycles[i];
            rec.stage_cycles[idle] += rec.stage_cycles[i];
            rec.stage_cycles[i] = 0;
        }
    }

    packets_ += packets;
    pkts_per_iter_.record(static_cast<std::int64_t>(packets));

    // Threshold check BEFORE folding this iteration into the EWMAs, so
    // a spike cannot mask itself; empty iterations neither arm nor
    // trip the cycles-per-packet rule.
    const double cpp =
        packets > 0 ? static_cast<double>(rec.cycles) / static_cast<double>(packets) : 0.0;
    if (iterations_ > kPerfWarmupIters) {
        if (packets > 0 && ewma_cpp_primed_ && cpp > kPerfSuspiciousFactor * ewma_cpp_) {
            rec.suspicious = true;
        }
        if (static_cast<double>(rec.upcalls) >
            kPerfSuspiciousFactor * ewma_upcalls_ + kPerfUpcallSlack) {
            rec.suspicious = true;
        }
    }
    if (packets > 0) {
        cycles_per_pkt_.record(static_cast<std::int64_t>(cpp));
        ewma_cpp_ = flush_subnormal(
            ewma_cpp_primed_ ? kPerfEwmaAlpha * cpp + (1 - kPerfEwmaAlpha) * ewma_cpp_ : cpp);
        ewma_cpp_primed_ = true;
    }
    const double up = static_cast<double>(rec.upcalls);
    ewma_upcalls_ = flush_subnormal(
        ewma_up_primed_ ? kPerfEwmaAlpha * up + (1 - kPerfEwmaAlpha) * ewma_upcalls_ : up);
    ewma_up_primed_ = true;

    ring_next_ = (ring_next_ + 1) % kPerfFlightDepth;
    ring_len_ = std::min(ring_len_ + 1, kPerfFlightDepth);

    if (rec.suspicious) {
        ++suspicious_;
        // Snapshot the ring oldest-first; the suspicious iteration is
        // the newest record, so the dump reads as a lead-up.
        last_dump_.clear();
        last_dump_.reserve(ring_len_);
        for (std::size_t i = 0; i < ring_len_; ++i) {
            const std::size_t idx = (ring_next_ + kPerfFlightDepth - ring_len_ + i)
                                    % kPerfFlightDepth;
            last_dump_.push_back(ring_[idx]);
        }
        OVSX_COVERAGE("perf.suspicious");
    }

    OVSX_COVERAGE("perf.iterations");
    if (packets > 0) OVSX_COVERAGE_N("perf.packets", packets);
}

void PmdPerf::note_upcall()
{
    ++upcalls_;
    if (in_iteration_) ++iter_upcalls_;
}

void PmdPerf::note_doorbell()
{
    ++doorbells_;
    if (in_iteration_) ++iter_doorbells_;
}

Value PerfIterationRecord::to_value() const
{
    Value v = Value::object();
    v.set("iter", iter);
    v.set("tsc_start", tsc_start);
    v.set("cycles", cycles);
    v.set("packets", packets);
    v.set("upcalls", static_cast<std::uint64_t>(upcalls));
    v.set("doorbells", static_cast<std::uint64_t>(doorbells));
    v.set("suspicious", suspicious);
    Value stages = Value::object();
    for (std::size_t i = 0; i < kPerfStages; ++i) {
        stages.set(to_string(static_cast<PerfStage>(i)), stage_cycles[i]);
    }
    v.set("stages", std::move(stages));
    return v;
}

Value PmdPerf::to_value() const
{
    Value v = Value::object();
    v.set("iterations", iterations_);
    v.set("packets", packets_);
    v.set("upcalls", upcalls_);
    v.set("doorbells", doorbells_);
    v.set("suspicious", suspicious_);
    v.set("tsc", tsc_);
    Value stages = Value::object();
    for (std::size_t i = 0; i < kPerfStages; ++i) {
        Value s = Value::object();
        s.set("cycles", stage_cycles_[i]);
        s.set("pct", tsc_ > 0 ? 100.0 * static_cast<double>(stage_cycles_[i]) /
                                    static_cast<double>(tsc_)
                              : 0.0);
        stages.set(to_string(static_cast<PerfStage>(i)), std::move(s));
    }
    v.set("stages", std::move(stages));
    v.set("pkts_per_iter", pkts_per_iter_.to_value());
    v.set("cycles_per_pkt", cycles_per_pkt_.to_value());
    return v;
}

Value PmdPerf::log_value() const
{
    Value v = Value::object();
    v.set("suspicious", suspicious_);
    Value thr = Value::object();
    thr.set("ewma_cycles_per_pkt", ewma_cpp_);
    thr.set("ewma_upcalls", ewma_upcalls_);
    thr.set("factor", kPerfSuspiciousFactor);
    thr.set("upcall_slack", kPerfUpcallSlack);
    thr.set("warmup_iterations", kPerfWarmupIters);
    v.set("threshold", std::move(thr));
    Value dump = Value::array();
    for (const auto& rec : last_dump_) dump.push(rec.to_value());
    v.set("last_dump", std::move(dump));
    return v;
}

void PmdPerf::reset()
{
    stage_ = PerfStage::Idle;
    tsc_ = 0;
    stage_cycles_.fill(0);
    class_cycles_.fill(0);
    in_iteration_ = false;
    iter_tsc_start_ = 0;
    iter_stage_start_.fill(0);
    iter_upcalls_ = 0;
    iter_doorbells_ = 0;
    iterations_ = packets_ = upcalls_ = doorbells_ = suspicious_ = 0;
    ewma_cpp_ = 0.0;
    ewma_cpp_primed_ = false;
    ewma_upcalls_ = 0.0;
    ewma_up_primed_ = false;
    pkts_per_iter_.reset();
    cycles_per_pkt_.reset();
    ring_.fill(PerfIterationRecord{});
    ring_len_ = ring_next_ = 0;
    last_dump_.clear();
}

} // namespace ovsx::obs

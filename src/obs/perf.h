// obs::perf — per-PMD cycle profiler, the dpif-netdev-perf analogue.
//
// Every ExecContext can carry a PmdPerf that observes the context's
// charge() stream: one virtual "cycle" per charged nanosecond, so the
// TSC is derived from the sim clock and identical seeds produce
// identical cycle counts. Providers bracket their poll loops with
// begin_iteration()/end_iteration() and wrap pipeline phases in
// PerfStageScope so every cycle lands in exactly one stage bucket
// (charges outside any scope count as idle).
//
// Per-iteration records feed two log-linear histograms
// (packets-per-iteration, cycles-per-packet) and a fixed-depth flight
// recorder; an iteration whose cycles-per-packet or upcall count blows
// past an EWMA-derived threshold is "suspicious" and snapshots the
// whole ring — the pmd-perf-log analogue, deterministic under a fixed
// seed because the TSC is.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/value.h"
#include "sync/annotations.h"

namespace ovsx::obs {

// Stage taxonomy (docs/OBSERVABILITY.md): one bucket per pipeline
// phase, same set on all three providers so pmd/perf-show rows are
// comparable across datapaths.
enum class PerfStage {
    RxPoll,         // ring/queue polling and descriptor work
    EmcLookup,      // parse + exact-match cache probe
    MegaflowLookup, // megaflow/subtable classifier probes
    Upcall,         // ofproto/upcall slow path
    Ct,             // conntrack processing
    Actions,        // action execution (sans ct/tx below)
    Tx,             // transmit + doorbells
    Idle,           // charges outside any stage scope
};
inline constexpr std::size_t kPerfStages = 8;

const char* to_string(PerfStage s);

// Flight-recorder depth: last K iteration records kept per PMD.
inline constexpr std::size_t kPerfFlightDepth = 32;
// Iterations before the suspicion thresholds arm (the EWMA needs a
// baseline; OVS's pmd-perf-log has the same warmup idea).
inline constexpr std::uint64_t kPerfWarmupIters = 8;
// Suspicious when cycles/packet exceeds factor x EWMA, or the upcall
// count exceeds factor x EWMA + slack (slack absorbs integer jitter on
// tiny baselines).
inline constexpr double kPerfSuspiciousFactor = 4.0;
inline constexpr double kPerfUpcallSlack = 4.0;
// Same smoothing as obs::Window: new iterations weigh 40%.
inline constexpr double kPerfEwmaAlpha = 0.4;

struct PerfIterationRecord {
    std::uint64_t iter = 0;      // iteration sequence number (1-based)
    std::int64_t tsc_start = 0;  // virtual TSC at begin_iteration
    std::int64_t cycles = 0;     // cycles consumed by this iteration
    std::uint64_t packets = 0;
    std::uint32_t upcalls = 0;
    std::uint32_t doorbells = 0;
    bool suspicious = false;
    std::array<std::int64_t, kPerfStages> stage_cycles{};

    Value to_value() const;
};

class PmdPerf {
public:
    explicit PmdPerf(std::string name);
    ~PmdPerf();
    PmdPerf(const PmdPerf&) = delete;
    PmdPerf& operator=(const PmdPerf&) = delete;

    const std::string& name() const { return name_; }

    // Hot hook from ExecContext::charge — one cycle per virtual ns,
    // attributed to the current stage and the charged CPU class.
    void on_charge(int cpu_class, std::int64_t ns)
    {
        tsc_ += ns;
        stage_cycles_[static_cast<std::size_t>(stage_)] += ns;
        class_cycles_[static_cast<std::size_t>(cpu_class) & 3] += ns;
    }

    PerfStage stage() const { return stage_; }
    void set_stage(PerfStage s) { stage_ = s; }

    // Iteration bracket. A zero-packet iteration's cycles are folded
    // into the idle stage (an empty poll is idle spin, whatever rings
    // it touched). end_iteration() while not in an iteration is a
    // no-op, so cold call sites need no guards.
    void begin_iteration();
    OVSX_HOT void end_iteration(std::uint64_t packets);
    bool in_iteration() const { return in_iteration_; }

    void note_upcall();
    void note_doorbell();

    // Cumulative counters.
    std::int64_t tsc() const { return tsc_; }
    std::uint64_t iterations() const { return iterations_; }
    std::uint64_t packets() const { return packets_; }
    std::uint64_t upcalls() const { return upcalls_; }
    std::uint64_t doorbells() const { return doorbells_; }
    std::uint64_t suspicious() const { return suspicious_; }
    std::int64_t stage_cycles(PerfStage s) const
    {
        return stage_cycles_[static_cast<std::size_t>(s)];
    }
    // Cycles by sim::CpuClass index (0..3) — identical to the owning
    // context's busy() when the profiler was attached at construction,
    // which is what lets RateMeasure use the profiler as the one
    // source of truth for Table 4's class split.
    std::int64_t class_cycles(std::size_t cpu_class) const
    {
        return class_cycles_[cpu_class & 3];
    }

    double ewma_cycles_per_pkt() const { return ewma_cpp_; }
    double ewma_upcalls() const { return ewma_upcalls_; }

    const LatencyHistogram& pkts_per_iter() const { return pkts_per_iter_; }
    const LatencyHistogram& cycles_per_pkt() const { return cycles_per_pkt_; }

    // Last flight-recorder dump (oldest record first, the suspicious
    // iteration last); empty until a suspicious iteration fired.
    const std::vector<PerfIterationRecord>& last_dump() const { return last_dump_; }

    // pmd/perf-show row: totals, per-stage {cycles,pct}, histograms.
    Value to_value() const;
    // pmd/perf-log row: thresholds + the last dump.
    Value log_value() const;

    void reset();

private:
    std::string name_;
    PerfStage stage_ = PerfStage::Idle;
    std::int64_t tsc_ = 0;
    std::array<std::int64_t, kPerfStages> stage_cycles_{};
    std::array<std::int64_t, 4> class_cycles_{};

    bool in_iteration_ = false;
    std::int64_t iter_tsc_start_ = 0;
    std::array<std::int64_t, kPerfStages> iter_stage_start_{};
    std::uint32_t iter_upcalls_ = 0;
    std::uint32_t iter_doorbells_ = 0;

    std::uint64_t iterations_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t upcalls_ = 0;
    std::uint64_t doorbells_ = 0;
    std::uint64_t suspicious_ = 0;
    double ewma_cpp_ = 0.0;
    bool ewma_cpp_primed_ = false;
    double ewma_upcalls_ = 0.0;
    bool ewma_up_primed_ = false;

    LatencyHistogram pkts_per_iter_;
    LatencyHistogram cycles_per_pkt_;

    std::array<PerfIterationRecord, kPerfFlightDepth> ring_{};
    std::size_t ring_len_ = 0;
    std::size_t ring_next_ = 0;
    std::vector<PerfIterationRecord> last_dump_;
};

// RAII stage marker; null profiler means every operation is a no-op,
// so hot paths need no branches at the call sites. Restores the
// previous stage on destruction — nesting (Actions -> Ct -> Actions)
// attributes each span to the innermost scope.
class PerfStageScope {
public:
    PerfStageScope(PmdPerf* perf, PerfStage s) : perf_(perf)
    {
        if (perf_) {
            prev_ = perf_->stage();
            perf_->set_stage(s);
        }
    }
    ~PerfStageScope()
    {
        if (perf_) perf_->set_stage(prev_);
    }
    PerfStageScope(const PerfStageScope&) = delete;
    PerfStageScope& operator=(const PerfStageScope&) = delete;

private:
    PmdPerf* perf_;
    PerfStage prev_ = PerfStage::Idle;
};

// --- global registry ----------------------------------------------------
//
// Live PmdPerf instances publish themselves by name (latest wins, like
// windows_publish); perf_show() renders them for the metrics "perf"
// section and the pmd/perf-show fallbacks. Global totals come from the
// perf.* coverage counters so they survive instance destruction (the
// harness builds thousands of short-lived datapaths per soak).

// Default on — the profiler is always-on; the soak's overhead leg
// flips this off to measure the cost of the charge hook.
bool perf_enabled();
void perf_set_enabled(bool enabled);

// {"iterations","packets","suspicious","pmds":{name: PmdPerf row}}
Value perf_show();
// {"pmds":{name: {"ewma_cycles_per_pkt",...,"last_dump":[...]}}}
Value perf_log_show();

// Creates a registered profiler (or nullptr when disabled) — the
// ExecContext attach path. The shared_ptr unregisters on destruction.
std::shared_ptr<PmdPerf> perf_create(const std::string& name);

} // namespace ovsx::obs

// Differential fuzz soak: runs seeded fuzz iterations against all three
// datapaths for a wall-clock budget and exits non-zero on any
// unexplained divergence, printing the (seed, count) pair that
// reproduces it.
//
//   bench_fuzz_soak [seed] [seconds] [packets-per-iteration]
//
// CI runs this with a rotating seed; locally, re-running with a printed
// seed reproduces a failure exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "gen/fuzz.h"
#include "gen/obs_export.h"
#include "gen/traffic.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/odp.h"
#include "kern/ovs_kmod.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"

namespace {

// The always-on profiler's documented overhead budget, as a percent of
// the profiler-off wall-clock (docs/OBSERVABILITY.md). Exceeding it
// fails the soak.
constexpr double kPerfOverheadBudgetPct = 10.0;
// The bound for the kernel leg, where every packet is its own profiler
// iteration (docs/OBSERVABILITY.md gives the measured figures).
constexpr double kPerfKernelOverheadBudgetPct = 60.0;

std::uint64_t coverage_count(const char* name)
{
    const auto id = ovsx::obs::coverage_find(name);
    return id ? ovsx::obs::coverage_value(*id) : 0;
}

// One profiler-overhead leg: a fixed, deterministic netdev P2P workload
// (AF_XDP ports, one PMD, a single wildcard flow, seeded traffic).
// Returns wall-clock seconds. With `artifact` set, snapshots
// pmd/perf-show + pmd/perf-log JSON while the PMD (and its profiler)
// is still alive — the CI-uploaded flight-recorder artifact.
double overhead_leg(bool profiler_on, const std::string& artifact)
{
    using namespace ovsx;
    obs::perf_set_enabled(profiler_on);
    const auto t0 = std::chrono::steady_clock::now();

    kern::Kernel host("soak-overhead");
    kern::NicConfig ncfg;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), ncfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), ncfg);
    nic1.connect_wire([](net::Packet&&) {});

    ovs::DpifNetdev dpif(host);
    ovs::AfxdpOptions aopts;
    aopts.umem_frames = 512;
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, aopts));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, aopts));
    net::FlowKey key;
    key.in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dpif.flow_put(key, mask, {kern::OdpAction::output(p1)});
    const int pmd = dpif.add_pmd("soak-pmd");
    dpif.pmd_assign(pmd, p0, 0);
    dpif.pmd_assign(pmd, p1, 0);

    gen::TrafficGen traffic({.n_flows = 64, .frame_size = 128});
    constexpr std::uint64_t kLegPackets = 8192;
    for (std::uint64_t i = 0; i < kLegPackets; ++i) {
        nic0.rx_from_wire(traffic.next());
        if ((i & 31) == 31) {
            while (dpif.pmd_poll_once(pmd) > 0) {
            }
        }
    }
    while (dpif.pmd_poll_once(pmd) > 0) {
    }

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    if (!artifact.empty() && profiler_on) {
        ovsx::obs::Value doc = ovsx::obs::Value::object();
        doc.set("perf_show", ovsx::obs::perf_show());
        doc.set("perf_log", ovsx::obs::perf_log_show());
        std::ofstream out(artifact);
        if (out) out << doc.to_json() << "\n";
    }
    obs::perf_set_enabled(true);
    return secs;
}

// The per-packet profiler leg: the kernel provider, where every solo
// receive() opens and closes one profiler iteration (the softirq rows
// of pmd/perf-show). The upcall handler installs one flow per
// microflow, so only the first packet of each of a few flows takes an
// upcall and the rest run upcall-free, far past the ~1,450 iterations
// after which an unflushed upcall EWMA would go subnormal. Frames are
// built before the clock starts; only the packet loop is timed.
double kernel_overhead_leg(bool profiler_on)
{
    using namespace ovsx;
    obs::perf_set_enabled(profiler_on);

    kern::Kernel host("soak-overhead-kernel");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    nic1.connect_wire([](net::Packet&&) {});
    kern::OvsKernelDatapath& dp = host.ovs_datapath();
    dp.add_port(nic0);
    const auto p1 = dp.add_port(nic1);
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    mask.bits.nw_src = 0xffffffff;
    mask.bits.nw_dst = 0xffffffff;
    const kern::OdpActions actions{kern::OdpAction::output(p1)};
    dp.set_upcall_handler([&](std::uint32_t, net::Packet&& pkt, const net::FlowKey& key,
                              sim::ExecContext& ctx) {
        dp.flow_put(key, mask, actions);
        dp.execute(std::move(pkt), actions, ctx);
    });

    gen::TrafficGen traffic({.n_flows = 8, .frame_size = 64});
    constexpr std::size_t kLegPackets = 65536;
    std::vector<net::Packet> frames;
    frames.reserve(kLegPackets);
    for (std::size_t i = 0; i < kLegPackets; ++i) frames.push_back(traffic.next());

    const auto t0 = std::chrono::steady_clock::now();
    for (net::Packet& f : frames) nic0.rx_from_wire(std::move(f));
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    obs::perf_set_enabled(true);
    return secs;
}

// Minimum wall-clock seconds per side over interleaved profiler-off /
// profiler-on reps of one leg: min-of-reps cancels scheduler noise.
struct Overhead {
    double off = 0.0;
    double on = 0.0;
    double pct() const { return off > 0 ? 100.0 * (on - off) / off : 0.0; }
};

// `leg(profiler_on, last_rep)` runs one rep and returns its seconds.
template <typename Leg> Overhead measure_overhead(Leg&& leg)
{
    constexpr int kOverheadReps = 4;
    Overhead o;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        const bool last = rep == kOverheadReps - 1;
        const double off = leg(false, last);
        const double on = leg(true, last);
        o.off = rep == 0 ? off : std::min(o.off, off);
        o.on = rep == 0 ? on : std::min(o.on, on);
    }
    return o;
}

} // namespace

int main(int argc, char** argv)
{
    const std::uint64_t base_seed = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 1;
    const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 5.0;
    const std::size_t count = argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 2000;

    ovsx::gen::FuzzConfig cfg;
    const auto start = std::chrono::steady_clock::now();
    std::size_t iterations = 0;
    std::size_t packets = 0;
    std::size_t explained = 0;
    std::size_t fabric_frames = 0;

    std::printf("fuzz soak: base_seed=%llu budget=%.1fs count=%zu\n",
                static_cast<unsigned long long>(base_seed), seconds, count);
    for (;;) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (elapsed >= seconds && iterations > 0) break;

        const std::uint64_t seed = base_seed + iterations;
        // Alternate feature mixes so every iteration is not the same shape.
        cfg.use_meters = (iterations % 3) == 1;
        cfg.use_ct = (iterations % 4) != 3;
        cfg.use_nat = (iterations % 3) != 1; // SNAT/DNAT rulesets in the mix
        cfg.num_queues = (iterations % 2) ? 2 : 1;
        cfg.use_fragments = (iterations % 3) == 2;
        cfg.use_extra_encaps = (iterations % 5) >= 3;
        cfg.use_int = (iterations % 2) == 0; // pre-attached INT headers in the mix
        // Rotate the burst-twin chunk size so the netdev rx path is
        // soaked at degenerate (1), partial (8) and full (32) bursts.
        static constexpr std::size_t kBatchSizes[] = {1, 8, 32};
        cfg.batch_size = kBatchSizes[iterations % 3];
        // Rotate shard counts so the soak continuously proves sharding
        // is invisible to the cross-provider end-state digests.
        static constexpr std::uint32_t kShardCounts[] = {1, 4, 16};
        cfg.shards = kShardCounts[iterations % 3];

        // Every few iterations, soak the fabric too: a 3-host leaf–spine
        // run per provider with INT stamping on, at the same rotated
        // batch size, diffed for delivery and journey divergence.
        if ((iterations % 4) == 0) {
            const auto fr = ovsx::fabric::run_fabric_differential(3, 2, cfg.batch_size);
            fabric_frames += fr.frames_sent;
            if (!fr.ok()) {
                std::printf("FAIL: fabric divergence at iteration=%zu batch=%zu\n%s\n",
                            iterations, cfg.batch_size, fr.summary().c_str());
                ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
                ovsx::gen::metrics_flush_from_env();
                return 1;
            }
        }
        const ovsx::gen::DiffReport report = ovsx::gen::fuzz_run(seed, cfg, count);
        packets += report.packets_run;
        explained += report.explained.size();
        if (!report.ok()) {
            // report.summary() includes the divergent packet's
            // per-provider obs trace and the minimized reproducer.
            std::printf("FAIL: unexplained divergence at seed=%llu count=%zu\n%s\n",
                        static_cast<unsigned long long>(seed), count,
                        report.summary().c_str());
            ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
            ovsx::obs::metrics_set("soak.fail_seed", ovsx::obs::Value(seed));
            ovsx::gen::metrics_flush_from_env();
            return 1;
        }
        ++iterations;
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const double pkt_per_s = static_cast<double>(packets) / (elapsed > 0 ? elapsed : 1);
    std::printf("OK: %zu iterations, %zu packets, %zu explained divergences, "
                "%zu fabric frames, %.1fs (%.0f pkt/s across 3 datapaths)\n",
                iterations, packets, explained, fabric_frames, elapsed, pkt_per_s);

    // Obs evidence that the netdev datapath saw multi-packet rx bursts:
    // the occupancy counter sums packets per flush (one flush per rx
    // burst), so occupancy/flush is the average burst size (the
    // cross-provider legs inject per-step, pinning their bursts at 1;
    // the burst-twin legs contribute the rotated chunk sizes).
    const std::uint64_t occupancy = coverage_count("batch.occupancy");
    const std::uint64_t flushes = coverage_count("batch.flush");
    std::printf("rx bursts: %llu packets over %llu flushes (avg occupancy %.2f)\n",
                static_cast<unsigned long long>(occupancy),
                static_cast<unsigned long long>(flushes),
                flushes ? static_cast<double>(occupancy) / static_cast<double>(flushes) : 0.0);

    // Profiler-overhead guard: two fixed deterministic legs, batched
    // netdev polling and per-packet kernel iterations, each measured
    // against its own profiler-off run and held to its bound.
    const char* artifact_env = std::getenv("OVSX_PERF_ARTIFACT");
    const std::string artifact = artifact_env ? artifact_env : "";
    const Overhead netdev = measure_overhead(
        [&](bool on, bool last) { return overhead_leg(on, last ? artifact : ""); });
    const Overhead kernel =
        measure_overhead([](bool on, bool) { return kernel_overhead_leg(on); });
    std::printf("profiler overhead (netdev): off=%.4fs on=%.4fs (%+.1f%%, budget %.0f%%)\n",
                netdev.off, netdev.on, netdev.pct(), kPerfOverheadBudgetPct);
    std::printf("profiler overhead (kernel): off=%.4fs on=%.4fs (%+.1f%%, budget %.0f%%)\n",
                kernel.off, kernel.on, kernel.pct(), kPerfKernelOverheadBudgetPct);
    if (!artifact.empty()) std::printf("perf artifact written to %s\n", artifact.c_str());
    ovsx::obs::metrics_set("soak.perf_off_seconds", ovsx::obs::Value(netdev.off));
    ovsx::obs::metrics_set("soak.perf_on_seconds", ovsx::obs::Value(netdev.on));
    ovsx::obs::metrics_set("soak.perf_overhead_pct", ovsx::obs::Value(netdev.pct()));
    ovsx::obs::metrics_set("soak.perf_overhead_budget_pct",
                           ovsx::obs::Value(kPerfOverheadBudgetPct));
    ovsx::obs::metrics_set("soak.perf_kernel_off_seconds", ovsx::obs::Value(kernel.off));
    ovsx::obs::metrics_set("soak.perf_kernel_on_seconds", ovsx::obs::Value(kernel.on));
    ovsx::obs::metrics_set("soak.perf_kernel_overhead_pct", ovsx::obs::Value(kernel.pct()));
    ovsx::obs::metrics_set("soak.perf_kernel_overhead_budget_pct",
                           ovsx::obs::Value(kPerfKernelOverheadBudgetPct));
    const bool netdev_over = netdev.pct() > kPerfOverheadBudgetPct;
    const bool kernel_over = kernel.pct() > kPerfKernelOverheadBudgetPct;
    if (netdev_over) {
        std::printf("FAIL: netdev profiler overhead %.1f%% exceeds the %.0f%% budget\n",
                    netdev.pct(), kPerfOverheadBudgetPct);
    }
    if (kernel_over) {
        std::printf("FAIL: kernel profiler overhead %.1f%% exceeds the %.0f%% budget\n",
                    kernel.pct(), kPerfKernelOverheadBudgetPct);
    }
    if (netdev_over || kernel_over) {
        ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
        ovsx::gen::metrics_flush_from_env();
        return 1;
    }

    ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("ok"));
    ovsx::obs::metrics_set("soak.pkt_per_s", ovsx::obs::Value(pkt_per_s));
    ovsx::obs::metrics_set("soak.batch_occupancy", ovsx::obs::Value(occupancy));
    ovsx::obs::metrics_set("soak.batch_flushes", ovsx::obs::Value(flushes));
    ovsx::obs::metrics_set("soak.base_seed", ovsx::obs::Value(base_seed));
    ovsx::obs::metrics_set("soak.iterations", ovsx::obs::Value(iterations));
    ovsx::obs::metrics_set("soak.packets", ovsx::obs::Value(packets));
    ovsx::obs::metrics_set("soak.explained_divergences", ovsx::obs::Value(explained));
    ovsx::obs::metrics_set("soak.fabric_frames", ovsx::obs::Value(fabric_frames));
    ovsx::obs::metrics_set("soak.elapsed_seconds", ovsx::obs::Value(elapsed));
    const std::string written = ovsx::gen::metrics_flush_from_env();
    if (!written.empty()) std::printf("obs metrics written to %s\n", written.c_str());
    return 0;
}

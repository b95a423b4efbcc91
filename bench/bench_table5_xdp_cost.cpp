// Table 5: single-core XDP processing rates for programs of increasing
// complexity, run as real bytecode on the simulated driver hook:
//   A: drop only                                  (14 Mpps = 10G line rate)
//   B: parse Eth/IPv4 and drop                    (8.1 Mpps)
//   C: parse, L2 table lookup, drop               (7.1 Mpps)
//   D: parse, swap src/dst MAC, forward (XDP_TX)  (4.7 Mpps)
//
// Each task's RateReport is published into the obs metrics tree under
// table5.<task>, together with the xdp.run coverage delta (every packet
// must have run the program), and the printed rows are derived back
// from that tree.
#include <cstdio>
#include <string>

#include "ebpf/programs.h"
#include "ebpf/vm.h"
#include "gen/measure.h"
#include "gen/obs_export.h"
#include "gen/traffic.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "obs/coverage.h"
#include "obs/metrics.h"

using namespace ovsx;

namespace {

double run_task(const char* key, const char* name, const ebpf::Program& prog, double paper_mpps)
{
    kern::Kernel host("host");
    kern::NicConfig cfg;
    cfg.gbps = 10.0; // the Table 5 testbed is the 10G NSX rig
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
    nic.connect_wire([](net::Packet&&) {});

    ebpf::Image image = ebpf::load(prog);
    if (!image.verified()) {
        std::printf("%-44s VERIFIER REJECTED: %s\n", name, image.verdict().error.c_str());
        return 0;
    }
    nic.attach_xdp(std::move(image));

    gen::TrafficGen gen({.n_flows = 1, .frame_size = 64});
    constexpr std::uint64_t kPackets = 30000;
    const std::uint64_t xdp_runs_before = obs::coverage_value(obs::coverage_id("xdp.run"));
    for (std::uint64_t i = 0; i < kPackets; ++i) nic.rx_from_wire(gen.next());

    gen::RateMeasure measure;
    measure.add_stage({"softirq", &nic.softirq_ctx(0), gen::StageKind::Demand, 1});
    const auto rep = measure.report(kPackets, sim::line_rate_pps(10.0, 64));

    // Publish, then render the row from the published metrics.
    const std::string prefix = std::string("table5.") + key;
    gen::publish_rate_report(prefix, rep);
    obs::metrics_set(prefix + ".paper_mpps", obs::Value(paper_mpps));
    obs::metrics_set(prefix + ".packets", obs::Value(kPackets));
    obs::metrics_set(
        prefix + ".xdp_runs",
        obs::Value(obs::coverage_value(obs::coverage_id("xdp.run")) - xdp_runs_before));

    const double mpps = obs::metrics_get(prefix + ".pps")->as_double() / 1e6;
    const double paper = obs::metrics_get(prefix + ".paper_mpps")->as_double();
    const auto runs = obs::metrics_get(prefix + ".xdp_runs")->as_uint();
    std::printf("%-44s %8.1f %10.1f %10llu\n", name, mpps, paper,
                static_cast<unsigned long long>(runs));
    return mpps;
}

} // namespace

int main()
{
    std::printf("Table 5: single-core XDP processing rates (64B, 10G line = 14.88 Mpps)\n\n");
    std::printf("%-44s %8s %10s %10s\n", "XDP processing task", "Mpps", "paper", "xdp runs");

    run_task("A_drop", "A: drop only", ebpf::xdp_drop_all(), 14.0);
    run_task("B_parse_drop", "B: parse Eth/IPv4 hdr and drop", ebpf::xdp_parse_drop(), 8.1);

    auto l2 = std::make_shared<ebpf::Map>(ebpf::MapType::Hash, "l2", 8, 4, 1024);
    // Populate the entry the traffic will hit.
    gen::TrafficGen probe_gen({.n_flows = 1, .frame_size = 64});
    net::Packet probe = probe_gen.next();
    std::uint8_t key[8] = {};
    std::memcpy(key, probe.data(), 6); // dst MAC
    const std::uint32_t port = 1;
    l2->update(key, {reinterpret_cast<const std::uint8_t*>(&port), 4});
    run_task("C_parse_lookup_drop", "C: parse, lookup in L2 table, and drop",
             ebpf::xdp_parse_lookup_drop(l2), 7.1);

    run_task("D_swap_macs_tx", "D: parse, swap src/dst MAC, and fwd", ebpf::xdp_swap_macs_tx(),
             4.7);

    std::printf("\nOutcome #4: complexity in XDP code reduces performance.\n");
    const std::string written = gen::metrics_flush_from_env();
    if (!written.empty()) std::printf("obs metrics written to %s\n", written.c_str());
    return 0;
}

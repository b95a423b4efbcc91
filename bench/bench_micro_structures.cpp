// Wall-clock microbenchmarks (google-benchmark) of the real data
// structures under the simulation: flow-key parsing and hashing, the
// EMC, the megaflow classifier, SPSC rings, the eBPF interpreter and
// verifier, tunnel encap/decap, checksums and conntrack. These measure
// *this implementation's* actual speed on the host CPU, complementing
// the virtual-time benches.
#include <benchmark/benchmark.h>

#include "afxdp/ring.h"
#include "ebpf/programs.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "gen/traffic.h"
#include "net/builder.h"
#include "net/checksum.h"
#include "net/tunnel.h"
#include "ovs/ct.h"
#include "ovs/emc.h"
#include "ovs/megaflow.h"

using namespace ovsx;

namespace {

net::Packet sample_udp()
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = net::ipv4(10, 0, 0, 1);
    spec.dst_ip = net::ipv4(10, 0, 0, 2);
    spec.src_port = 1000;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

void BM_ParseFlow(benchmark::State& state)
{
    const net::Packet pkt = sample_udp();
    for (auto _ : state) {
        benchmark::DoNotOptimize(net::parse_flow(pkt));
    }
}
BENCHMARK(BM_ParseFlow);

void BM_FlowKeyHash(benchmark::State& state)
{
    const net::FlowKey key = net::parse_flow(sample_udp());
    for (auto _ : state) {
        benchmark::DoNotOptimize(key.hash());
    }
}
BENCHMARK(BM_FlowKeyHash);

void BM_EmcLookupHit(benchmark::State& state)
{
    ovs::Emc emc;
    const net::FlowKey key = net::parse_flow(sample_udp());
    auto flow = std::make_shared<ovs::CachedFlow>();
    emc.insert(key, key.hash(), flow);
    for (auto _ : state) {
        benchmark::DoNotOptimize(emc.lookup(key, key.hash()));
    }
}
BENCHMARK(BM_EmcLookupHit);

void BM_MegaflowLookup(benchmark::State& state)
{
    ovs::MegaflowCache cache;
    // `range(0)` subtables to probe.
    gen::TrafficGen gen({.n_flows = 64});
    for (int m = 0; m < state.range(0); ++m) {
        net::FlowMask mask;
        mask.bits.in_port = 0xffffffff;
        mask.bits.tp_dst = static_cast<std::uint16_t>(1 << m);
        net::Packet p = gen.next();
        p.meta().in_port = 1;
        cache.insert(net::parse_flow(p), mask, {kern::OdpAction::output(2)});
    }
    net::Packet probe = gen.next();
    probe.meta().in_port = 1;
    const net::FlowKey key = net::parse_flow(probe);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(key));
    }
}
BENCHMARK(BM_MegaflowLookup)->Arg(1)->Arg(4)->Arg(16);

void BM_SpscRing(benchmark::State& state)
{
    afxdp::SpscRing<std::uint64_t> ring(1024);
    std::uint64_t v = 0;
    for (auto _ : state) {
        ring.produce(v++);
        benchmark::DoNotOptimize(ring.consume());
    }
}
BENCHMARK(BM_SpscRing);

void BM_EbpfInterpreter(benchmark::State& state)
{
    ebpf::Vm vm;
    const ebpf::Image image = ebpf::load(ebpf::xdp_parse_drop());
    net::Packet pkt = sample_udp();
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.run_xdp(image, pkt));
    }
}
BENCHMARK(BM_EbpfInterpreter);

void BM_EbpfVerifier(benchmark::State& state)
{
    auto l2 = std::make_shared<ebpf::Map>(ebpf::MapType::Hash, "l2", 8, 4, 128);
    auto prog = ebpf::xdp_parse_lookup_drop(l2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ebpf::verify(prog));
    }
}
BENCHMARK(BM_EbpfVerifier);

void BM_GeneveEncapDecap(benchmark::State& state)
{
    net::TunnelKey key;
    key.tun_id = 5001;
    key.ip_src = net::ipv4(172, 16, 0, 1);
    key.ip_dst = net::ipv4(172, 16, 0, 2);
    net::EncapParams params;
    params.outer_src_mac = net::MacAddr::from_id(1);
    params.outer_dst_mac = net::MacAddr::from_id(2);
    for (auto _ : state) {
        net::Packet pkt = sample_udp();
        net::encapsulate(pkt, net::TunnelType::Geneve, key, params);
        benchmark::DoNotOptimize(net::decapsulate_auto(pkt));
    }
}
BENCHMARK(BM_GeneveEncapDecap);

void BM_InternetChecksum(benchmark::State& state)
{
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net::internet_checksum(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1448);

void BM_ConntrackEstablished(benchmark::State& state)
{
    ovs::UserspaceConntrack ct;
    sim::ExecContext ctx("x", sim::CpuClass::User);
    net::Packet pkt = sample_udp();
    const net::FlowKey key = net::parse_flow(pkt);
    kern::CtSpec commit;
    commit.zone = 1;
    commit.commit = true;
    ct.process(pkt, key, commit, ctx);
    kern::CtSpec check;
    check.zone = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ct.process(pkt, key, check, ctx));
    }
}
BENCHMARK(BM_ConntrackEstablished);

} // namespace

BENCHMARK_MAIN();

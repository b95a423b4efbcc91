#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "churn_flows.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "kern/stack.h"
#include "kern/tap.h"
#include "kern/veth.h"
#include "net/builder.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "obs/latency.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "san/report.h"

namespace ovsx::kern {
namespace {

using net::ipv4;

net::Packet udp64(std::uint16_t sport = 1000)
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = ipv4(10, 0, 0, 2);
    spec.src_port = sport;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

class KmodTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        nic0 = &kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        nic1 = &kernel.add_device<PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        dp = &kernel.ovs_datapath();
        p0 = dp->add_port(*nic0);
        p1 = dp->add_port(*nic1);
        nic1->connect_wire([this](net::Packet&& p) { out1.push_back(std::move(p)); });
        nic0->connect_wire([this](net::Packet&& p) { out0.push_back(std::move(p)); });
    }

    // Exact-match flow on in_port + 5-tuple.
    net::FlowMask tuple_mask()
    {
        net::FlowMask m;
        m.bits.in_port = 0xffffffff;
        m.bits.nw_src = 0xffffffff;
        m.bits.nw_dst = 0xffffffff;
        m.bits.nw_proto = 0xff;
        m.bits.tp_src = 0xffff;
        m.bits.tp_dst = 0xffff;
        return m;
    }

    Kernel kernel;
    PhysicalDevice* nic0 = nullptr;
    PhysicalDevice* nic1 = nullptr;
    OvsKernelDatapath* dp = nullptr;
    std::uint32_t p0 = 0, p1 = 0;
    std::vector<net::Packet> out0, out1;
};

TEST_F(KmodTest, MissWithoutHandlerIsLost)
{
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dp->misses(), 1u);
    EXPECT_EQ(dp->lost(), 1u);
    EXPECT_TRUE(out1.empty());
}

TEST_F(KmodTest, InstalledFlowForwards)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    const auto key = net::parse_flow(probe);
    dp->flow_put(key, tuple_mask(), {OdpAction::output(p1)});

    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dp->hits(), 1u);
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(dp->flow_count(), 1u);
}

// A hit updates its flow's stats, as Linux's ovs_flow_stats_update
// does, so the revalidator's idle sweep keeps a flow packets still hit.
TEST_F(KmodTest, HitsUpdateFlowStatsAndKeepABusyFlowThroughIdleSweeps)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    dp->flow_put(net::parse_flow(probe), tuple_mask(), {OdpAction::output(p1)});

    std::uint64_t sent = 0;
    auto send = [&](int n) {
        for (int i = 0; i < n; ++i) {
            net::Packet pkt = udp64();
            sent += pkt.size();
            nic0->rx_from_wire(std::move(pkt));
        }
    };
    // 100 hits, half before each of two sweeps.
    send(50);
    EXPECT_EQ(dp->expire_idle(), 0u);
    send(50);
    EXPECT_EQ(dp->expire_idle(), 0u);

    ASSERT_EQ(dp->flow_count(), 1u);
    dp->flows().for_each_entry([&](const CachedFlow& f, const net::FlowMask&) {
        EXPECT_EQ(f.hits, 100u);
        EXPECT_EQ(f.bytes, sent);
    });
    EXPECT_EQ(out1.size(), 100u);
    // An idle flow still goes at the next sweep.
    EXPECT_EQ(dp->expire_idle(), 1u);
    EXPECT_EQ(dp->flow_count(), 0u);
}

TEST_F(KmodTest, UpcallHandlerInstallsFlowLikeVswitchd)
{
    // Model the ovs-vswitchd slow path: on miss, install the flow and
    // re-inject the packet.
    dp->set_upcall_handler([this](std::uint32_t, net::Packet&& pkt, const net::FlowKey& key,
                                  sim::ExecContext& ctx) {
        dp->flow_put(key, tuple_mask(), {OdpAction::output(p1)});
        dp->execute(std::move(pkt), {OdpAction::output(p1)}, ctx);
    });

    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dp->misses(), 1u);
    EXPECT_EQ(out1.size(), 1u);

    // Second packet of the same flow hits the installed flow.
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dp->hits(), 1u);
    EXPECT_EQ(out1.size(), 2u);

    // A different flow misses again.
    nic0->rx_from_wire(udp64(1001));
    EXPECT_EQ(dp->misses(), 2u);
}

TEST_F(KmodTest, MaskedFlowCoversManyMicroflows)
{
    // A megaflow matching only in_port forwards everything cheaply.
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask, {OdpAction::output(p1)});

    for (std::uint16_t s = 0; s < 100; ++s) nic0->rx_from_wire(udp64(s));
    EXPECT_EQ(dp->hits(), 100u);
    EXPECT_EQ(out1.size(), 100u);
    EXPECT_EQ(dp->mask_count(), 1u);
}

TEST_F(KmodTest, MoreMasksMeanMoreProbesAndCost)
{
    // Install flows under increasingly many distinct masks and observe
    // the lookup cost growing — the megaflow-cache design pressure.
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    const auto key = net::parse_flow(probe);

    net::FlowMask m1;
    m1.bits.in_port = 0xffffffff;
    net::FlowMask m2 = m1;
    m2.bits.nw_dst = 0xffffffff;
    net::FlowMask m3 = m2;
    m3.bits.tp_dst = 0xffff;
    // The matching flow lives under the least specific mask, so probes
    // walk through the more specific subtables first.
    net::FlowKey other = key;
    other.tp_dst = 9;
    dp->flow_put(other, m3, {OdpAction::drop()});
    other.nw_dst = ipv4(9, 9, 9, 9);
    dp->flow_put(other, m2, {OdpAction::drop()});
    dp->flow_put(key, m1, {OdpAction::output(p1)});
    EXPECT_EQ(dp->mask_count(), 3u);

    const auto before = nic0->softirq_ctx(0).total_busy();
    nic0->rx_from_wire(udp64());
    const auto cost3 = nic0->softirq_ctx(0).total_busy() - before;
    EXPECT_EQ(out1.size(), 1u);

    dp->flow_flush();
    dp->flow_put(key, m1, {OdpAction::output(p1)});
    const auto before1 = nic0->softirq_ctx(0).total_busy();
    nic0->rx_from_wire(udp64());
    const auto cost1 = nic0->softirq_ctx(0).total_busy() - before1;
    EXPECT_GT(cost3, cost1);
}

TEST_F(KmodTest, VlanActions)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask,
                 {OdpAction::push_vlan(42), OdpAction::output(p1)});
    nic0->rx_from_wire(udp64());
    ASSERT_EQ(out1.size(), 1u);
    const auto key = net::parse_flow(out1[0]);
    EXPECT_EQ(key.vlan_tci & 0xfff, 42);
    EXPECT_EQ(key.nw_dst, ipv4(10, 0, 0, 2)); // inner payload intact
}

TEST_F(KmodTest, SetFieldRewritesAndRepairsChecksums)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;

    net::FlowKey rewrite;
    rewrite.nw_dst = ipv4(99, 99, 99, 99);
    net::FlowMask rmask;
    rmask.bits.nw_dst = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask,
                 {OdpAction::set_field(rewrite, rmask), OdpAction::output(p1)});
    nic0->rx_from_wire(udp64());
    ASSERT_EQ(out1.size(), 1u);
    const auto key = net::parse_flow(out1[0]);
    EXPECT_EQ(key.nw_dst, ipv4(99, 99, 99, 99));
    EXPECT_EQ(net::internet_checksum({out1[0].data() + 14, 20}), 0);
    EXPECT_TRUE(net::verify_l4_csum(out1[0], 14));
}

TEST_F(KmodTest, CtRecircPipeline)
{
    // The NSX-style pipeline: ct() then recirculate, matching ct_state
    // on the second pass (§5.1's three-lookup structure).
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    auto key0 = net::parse_flow(probe);

    net::FlowMask pass1;
    pass1.bits.in_port = 0xffffffff;
    CtSpec ct;
    ct.zone = 7;
    ct.commit = true;
    dp->flow_put(key0, pass1, {OdpAction::conntrack(ct), OdpAction::recirc(1)});

    net::FlowKey key1 = key0;
    key1.recirc_id = 1;
    key1.ct_state = net::kCtStateTracked | net::kCtStateNew;
    key1.ct_zone = 7;
    net::FlowMask pass2;
    pass2.bits.in_port = 0xffffffff;
    pass2.bits.recirc_id = 0xffffffff;
    pass2.bits.ct_state = 0xff;
    pass2.bits.ct_zone = 0xffff;
    dp->flow_put(key1, pass2, {OdpAction::output(p1)});

    // Established continuation.
    net::FlowKey key2 = key1;
    key2.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    dp->flow_put(key2, pass2, {OdpAction::output(p1)});

    nic0->rx_from_wire(udp64());
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(kernel.conntrack().size(), 1u);

    // Second packet follows the established path.
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(out1.size(), 2u);
    EXPECT_EQ(dp->hits(), 4u); // 2 packets x 2 lookups
}

TEST_F(KmodTest, MulticastOutputClones)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask,
                 {OdpAction::output(p1), OdpAction::output(p0)});
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(out1.size(), 1u);
    EXPECT_EQ(out0.size(), 1u);
}

TEST_F(KmodTest, FlowReplacedDuringItsOwnExecutionFinishesItsActions)
{
    // The flow's first output crosses a veth pair back into the datapath.
    // That pass misses, and its upcall replaces the running flow and
    // grows its subtable's table before the second output runs.
    auto [va, vb] = VethDevice::create_pair(kernel, "va", "vb");
    const std::uint32_t pa = dp->add_port(*va);
    const std::uint32_t pb = dp->add_port(*vb);
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    const net::FlowKey key = net::parse_flow(probe);
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp->flow_put(key, mask, {OdpAction::output(pa), OdpAction::output(p1)});

    std::vector<std::uint32_t> upcalls;
    dp->set_upcall_handler(
        [&](std::uint32_t port_no, net::Packet&&, const net::FlowKey&, sim::ExecContext&) {
            upcalls.push_back(port_no);
            dp->flow_put(key, mask, {OdpAction::drop()});
            net::FlowKey other = key;
            for (std::uint32_t i = 0; i < 64; ++i) {
                other.in_port = 1000 + i;
                dp->flow_put(other, mask, {OdpAction::drop()});
            }
        });

    nic0->rx_from_wire(udp64());
    EXPECT_EQ(upcalls, std::vector<std::uint32_t>{pb});
    EXPECT_EQ(out1.size(), 1u); // the replaced flow's second output still ran
    EXPECT_EQ(dp->flow_count(), 65u);
    EXPECT_EQ(dp->mask_count(), 1u);

    // The next packet takes the replacement.
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(out1.size(), 1u);
    EXPECT_EQ(upcalls.size(), 1u);
}

TEST_F(KmodTest, FlowDelete)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    const auto key = net::parse_flow(probe);
    dp->flow_put(key, tuple_mask(), {OdpAction::output(p1)});
    EXPECT_EQ(dp->flow_count(), 1u);
    EXPECT_TRUE(dp->flow_del(key, tuple_mask()));
    EXPECT_EQ(dp->flow_count(), 0u);
    EXPECT_FALSE(dp->flow_del(key, tuple_mask()));
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dp->misses(), 1u);
}

TEST_F(KmodTest, GeneveTunnelRoundTripBetweenDatapaths)
{
    // Host A encapsulates out its NIC; host B decapsulates into its
    // datapath — the inter-host NSX path of Fig. 8(a).
    Kernel hostb("hostb");
    auto& b_nic = hostb.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(20));
    auto& b_tap = hostb.add_device<TapDevice>("tap0", net::MacAddr::from_id(21));
    auto& bdp = hostb.ovs_datapath();
    bdp.add_port(b_nic); // underlay port feeds the stack? No: datapath owns it.
    const auto b_tun = bdp.add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                           ipv4(172, 16, 0, 2));
    const auto b_vm = bdp.add_port(b_tap);

    // Host B: tunneled traffic must reach its stack. Its NIC port flow
    // sends outer traffic to the "userspace"... in the kernel model, the
    // datapath forwards tunnel UDP to the local stack via a flow that
    // outputs to the stack — model this with an upcall-installed flow
    // that calls into the stack directly.
    bdp.set_upcall_handler([&](std::uint32_t, net::Packet&& pkt, const net::FlowKey& key,
                               sim::ExecContext& ctx) {
        // Outer packet destined to our tunnel endpoint: hand to stack.
        if (key.tp_dst == net::kGenevePort) {
            hostb.stack().rx(b_nic, std::move(pkt), ctx);
        }
    });
    hostb.stack().add_address(b_nic.ifindex(), ipv4(172, 16, 0, 2), 24);

    // Flow on B: tunnel port -> VM tap.
    net::FlowMask tun_mask;
    tun_mask.bits.in_port = 0xffffffff;
    net::FlowKey tun_key;
    tun_key.in_port = b_tun;
    bdp.flow_put(tun_key, tun_mask, {OdpAction::output(b_vm)});

    int vm_got = 0;
    b_tap.set_fd_rx([&](net::Packet&& pkt, sim::ExecContext&) {
        ++vm_got;
        // Inner frame intact after decap.
        EXPECT_EQ(net::parse_flow(pkt).nw_dst, ipv4(10, 0, 0, 2));
    });

    // Host A: flow encapsulates traffic from eth0 into the tunnel.
    const auto a_tun = dp->add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                           ipv4(172, 16, 0, 1));
    kernel.stack().add_address(nic1->ifindex(), ipv4(172, 16, 0, 1), 24);
    kernel.stack().add_neighbor(ipv4(172, 16, 0, 2), b_nic.mac(), nic1->ifindex());
    net::TunnelKey tkey;
    tkey.tun_id = 5001;
    tkey.ip_dst = ipv4(172, 16, 0, 2);
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask,
                 {OdpAction::set_tunnel(tkey), OdpAction::output(a_tun)});

    // Wire A's eth1 to B's NIC.
    nic1->connect_wire([&](net::Packet&& p) { b_nic.rx_from_wire(std::move(p)); });

    nic0->rx_from_wire(udp64());
    EXPECT_EQ(vm_got, 1);
}

// Mixed hits and misses on one port: each packet gets its own verdict,
// and misses reach the upcall handler in arrival order.
TEST_F(KmodTest, MixedHitsAndMissesKeepArrivalOrder)
{
    // Flow for sport 1000 only; sport 2000 packets miss and upcall.
    dp->flow_put(net::parse_flow([&] {
                     net::Packet probe = udp64(1000);
                     probe.meta().in_port = p0;
                     return probe;
                 }()),
                 tuple_mask(), {OdpAction::output(p1)});

    std::vector<std::uint16_t> upcall_sports;
    dp->set_upcall_handler([&](std::uint32_t, net::Packet&&, const net::FlowKey& key,
                               sim::ExecContext&) { upcall_sports.push_back(key.tp_src); });

    sim::ExecContext softirq{"softirq", sim::CpuClass::Softirq};
    for (const std::uint16_t sport : {1000, 2000, 1000, 2001, 1000}) {
        net::Packet pkt = udp64(sport);
        pkt.meta().in_port = p0;
        dp->receive(p0, std::move(pkt), softirq);
    }
    EXPECT_EQ(out1.size(), 3u);
    EXPECT_EQ(dp->hits(), 3u);
    EXPECT_EQ(dp->misses(), 2u);
    EXPECT_EQ(upcall_sports, (std::vector<std::uint16_t>{2000, 2001}));
}

// Tracing on for one test, with the kernel's domain tag.
struct ScopedTrace {
    ScopedTrace()
    {
        obs::tracer().enable();
        obs::tracer().set_domain("kernel");
    }
    ~ScopedTrace()
    {
        obs::tracer().disable();
        obs::latency_reset();
    }
};

std::vector<obs::TraceEvent> spans(std::uint32_t id, obs::Hop hop)
{
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& e : obs::tracer().events_for(id)) {
        if (e.hop == hop) out.push_back(e);
    }
    return out;
}

// A recirculated packet runs the same classifier pass as a received
// one (Linux's ovs_dp_process_packet): coverage, trace spans, the upcall
// enqueue charge and the upcall itself.
TEST_F(KmodTest, RecirculatedPassIsClassifiedLikeTheFirst)
{
    ScopedTrace trace;
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dp->flow_put(net::parse_flow(probe), mask, {OdpAction::recirc(1)}); // no second pass
    std::vector<std::uint32_t> upcall_ports;
    std::vector<std::uint32_t> upcall_recirc_ids;
    dp->set_upcall_handler([&](std::uint32_t port_no, net::Packet&&, const net::FlowKey& key,
                               sim::ExecContext&) {
        upcall_ports.push_back(port_no);
        upcall_recirc_ids.push_back(key.recirc_id);
    });

    net::Packet pkt = udp64();
    const std::uint32_t id = obs::tracer().next_packet_id();
    pkt.meta().trace_id = id;
    nic0->rx_from_wire(std::move(pkt));

    sim::ExecContext& softirq = nic0->softirq_ctx(0);
    EXPECT_EQ(dp->hits(), 1u);
    EXPECT_EQ(dp->misses(), 1u);
    EXPECT_EQ(softirq.counter(std::string("kdp.hit")), 1u);
    EXPECT_EQ(softirq.counter(std::string("kdp.miss")), 1u);
    EXPECT_EQ(spans(id, obs::Hop::Upcall).size(), 1u);
    ASSERT_NE(softirq.perf(), nullptr);
    EXPECT_EQ(softirq.perf()->stage_cycles(obs::PerfStage::Upcall),
              kernel.costs().upcall / 10);
    EXPECT_EQ(upcall_ports, (std::vector<std::uint32_t>{p0}));
    EXPECT_EQ(upcall_recirc_ids, (std::vector<std::uint32_t>{1}));
    const std::vector<obs::TraceEvent> flow = spans(id, obs::Hop::KernelFlow);
    ASSERT_EQ(flow.size(), 2u);
    EXPECT_STREQ(flow[0].verdict, "hit");
    EXPECT_STREQ(flow[1].verdict, "miss");
}

// The hit variant: both passes trace a hit, and the packet's latency
// carries the second pass's re-entry and probe cost.
TEST_F(KmodTest, RecirculatedHitTracesAndChargesItsProbe)
{
    ScopedTrace trace;
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowKey key = net::parse_flow(probe);
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dp->flow_put(key, mask, {OdpAction::recirc(1)});
    key.recirc_id = 1;
    dp->flow_put(key, mask, {OdpAction::output(p1)});

    net::Packet pkt = udp64();
    const std::uint32_t id = obs::tracer().next_packet_id();
    pkt.meta().trace_id = id;
    nic0->rx_from_wire(std::move(pkt));

    EXPECT_EQ(dp->hits(), 2u);
    EXPECT_EQ(nic0->softirq_ctx(0).counter(std::string("kdp.hit")), 2u);
    ASSERT_EQ(out1.size(), 1u);
    const std::vector<obs::TraceEvent> flow = spans(id, obs::Hop::KernelFlow);
    const std::vector<obs::TraceEvent> tx = spans(id, obs::Hop::Tx);
    ASSERT_FALSE(flow.empty());
    ASSERT_EQ(tx.size(), 1u);
    // After the first pass: the re-entry charge and the second probe.
    const auto& costs = kernel.costs();
    EXPECT_EQ(tx[0].ts - flow[0].ts, costs.kdp_base / 2 + costs.kdp_flow_probe);
    ASSERT_EQ(flow.size(), 2u);
    EXPECT_STREQ(flow[0].verdict, "hit");
    EXPECT_STREQ(flow[1].verdict, "hit");
    EXPECT_EQ(flow[1].a, 1u); // one mask, one probe
    EXPECT_EQ(flow[1].ts, tx[0].ts);
}

// The kernel probes the most specific mask first, whatever order the
// masks arrive in: a key that only the most specific mask's flow
// matches hits on the first probe.
TEST_F(KmodTest, MostSpecificMaskIsProbedFirst)
{
    ScopedTrace trace;
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    const net::FlowKey key = net::parse_flow(probe);
    net::FlowMask m1;
    m1.bits.in_port = 0xffffffff;
    net::FlowMask m2 = m1;
    m2.bits.nw_dst = 0xffffffff;
    net::FlowMask m3 = m2;
    m3.bits.tp_dst = 0xffff;
    net::FlowKey other_port = key;
    other_port.in_port = p1;
    dp->flow_put(other_port, m1, {OdpAction::drop()});
    net::FlowKey other_dst = key;
    other_dst.nw_dst = ipv4(9, 9, 9, 9);
    dp->flow_put(other_dst, m2, {OdpAction::drop()});
    dp->flow_put(key, m3, {OdpAction::output(p1)});
    ASSERT_EQ(dp->mask_count(), 3u);

    net::Packet pkt = udp64();
    const std::uint32_t id = obs::tracer().next_packet_id();
    pkt.meta().trace_id = id;
    nic0->rx_from_wire(std::move(pkt));
    EXPECT_EQ(out1.size(), 1u);
    const std::vector<obs::TraceEvent> flow = spans(id, obs::Hop::KernelFlow);
    ASSERT_EQ(flow.size(), 1u);
    EXPECT_STREQ(flow[0].verdict, "hit");
    EXPECT_EQ(flow[0].a, 1u); // one probe
}

// A userspace() action is an action upcall (Linux's output_userspace):
// the packet is punted once, and the miss handler does not translate
// and execute it again.
TEST_F(KmodTest, UserspaceActionPuntsOnce)
{
    ScopedTrace trace;
    int handler_calls = 0;
    dp->set_upcall_handler([&](std::uint32_t, net::Packet&& pkt, const net::FlowKey& key,
                               sim::ExecContext& ctx) {
        ++handler_calls;
        const OdpActions actions = {OdpAction::output(p1), OdpAction::userspace()};
        dp->flow_put(key, tuple_mask(), actions);
        dp->execute(std::move(pkt), actions, ctx);
    });

    net::Packet pkt = udp64();
    const std::uint32_t id = obs::tracer().next_packet_id();
    pkt.meta().trace_id = id;
    nic0->rx_from_wire(std::move(pkt));
    EXPECT_EQ(handler_calls, 1);
    EXPECT_EQ(out1.size(), 1u);
    ASSERT_EQ(dp->punted().size(), 1u);
    const std::vector<obs::TraceEvent> punt = spans(id, obs::Hop::Action);
    ASSERT_EQ(punt.size(), 1u);
    EXPECT_STREQ(punt[0].verdict, "userspace-punt");
}

// The punt queue is bounded: ten times its depth through a controller
// flow [output(p1), userspace] still forwards every packet, keeps
// kPuntQueueDepth of them for ovs-vswitchd, and counts the rest in
// lost(), as Linux counts a failed action upcall in n_lost.
TEST_F(KmodTest, PuntQueueIsBoundedAndOverflowIsLost)
{
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    dp->flow_put(net::parse_flow(probe), tuple_mask(),
                 {OdpAction::output(p1), OdpAction::userspace()});

    constexpr std::size_t kSent = 10 * kPuntQueueDepth;
    for (std::size_t i = 0; i < kSent; ++i) nic0->rx_from_wire(udp64());
    EXPECT_EQ(out1.size(), kSent);
    EXPECT_EQ(dp->punted().size(), kPuntQueueDepth);
    EXPECT_EQ(dp->lost(), kSent - kPuntQueueDepth);
    EXPECT_EQ(dp->hits(), kSent);
}

// DpifNetdevTest.MeterDropsExcess on the kernel module, which counts
// and traces each meter drop as the userspace datapath does.
TEST_F(KmodTest, MeterDropsExcess)
{
    ScopedTrace trace;
    dp->meters().set(1, {.rate_kbps = 0, .rate_pps = 1000, .burst = 2});
    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    dp->flow_put(net::parse_flow(probe), tuple_mask(),
                 {OdpAction::meter(1), OdpAction::output(p1)});
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < 5; ++i) {
        net::Packet pkt = udp64();
        ids.push_back(obs::tracer().next_packet_id());
        pkt.meta().trace_id = ids.back();
        nic0->rx_from_wire(std::move(pkt));
    }
    EXPECT_EQ(out1.size(), 2u); // burst of 2, rest dropped by the meter
    EXPECT_EQ(dp->meters().dropped(1), 3u);
    EXPECT_EQ(nic0->softirq_ctx(0).counter(std::string("meter.drop")), 3u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::vector<obs::TraceEvent> meter = spans(ids[i], obs::Hop::Meter);
        ASSERT_EQ(meter.size(), i < 2 ? 0u : 1u) << "packet " << i;
        if (i < 2) continue;
        EXPECT_STREQ(meter[0].verdict, "drop");
        EXPECT_EQ(meter[0].a, 1u); // the meter id
    }
}

// The churn benchmark's table shape at scale (churn_flows.h): ~20k
// flows over eight masks, many masked keys installed more than once,
// then every third draw's flow deleted (about 40 % of the flows, as
// re-installed keys share one). The bucket arrays regrow many times.
// Every kept key must forward without an upcall, every deleted key must
// upcall, and the table's count, dump and san audit must agree with a
// reference set.
TEST_F(KmodTest, ChurnScaleTableAgreesWithReferenceSet)
{
    san::ScopedHardened hardened;
    san::ScopedCollect collect;
    const std::vector<net::FlowMask> masks = churn::masks();
    std::vector<churn::Flow> flows = churn::flows(77, 45000);
    for (auto& f : flows) f.key.in_port = p0;
    std::vector<std::unordered_set<net::FlowKey, churn::KeyBytesHash>> ref(masks.size());
    for (const auto& f : flows) {
        dp->flow_put(f.key, masks[f.mask], {OdpAction::output(p1)});
        ref[f.mask].insert(masks[f.mask].apply(f.key));
    }
    for (std::size_t i = 0; i < flows.size(); i += 3) {
        const auto& f = flows[i];
        const bool present = ref[f.mask].erase(masks[f.mask].apply(f.key)) > 0;
        ASSERT_EQ(dp->flow_del(f.key, masks[f.mask]), present) << "flow " << i;
    }
    std::size_t expected = 0;
    for (const auto& set : ref) expected += set.size();
    ASSERT_GT(expected, 10000u);
    EXPECT_EQ(dp->flow_count(), expected);
    EXPECT_EQ(dp->mask_count(), masks.size());

    // The dump holds exactly the reference set: every entry once.
    std::size_t dumped = 0;
    for (const OdpFlowEntry& e : dp->flow_dump()) {
        const auto m = static_cast<std::size_t>(
            std::find(masks.begin(), masks.end(), e.mask) - masks.begin());
        ASSERT_LT(m, masks.size());
        EXPECT_EQ(ref[m].count(e.key), 1u);
        ++dumped;
    }
    EXPECT_EQ(dumped, expected);
    dp->san_check(OVSX_SITE);
    EXPECT_TRUE(collect.violations().empty());

    std::size_t upcalls = 0;
    dp->set_upcall_handler(
        [&](std::uint32_t, net::Packet&&, const net::FlowKey&, sim::ExecContext&) { ++upcalls; });
    std::size_t wrong = 0;
    for (const auto& f : flows) {
        net::UdpSpec spec;
        spec.src_mac = net::MacAddr::from_id(1);
        spec.dst_mac = net::MacAddr::from_id(2);
        spec.src_ip = f.key.nw_src;
        spec.dst_ip = f.key.nw_dst;
        spec.src_port = f.key.tp_src;
        spec.dst_port = f.key.tp_dst;
        const bool kept = ref[f.mask].count(masks[f.mask].apply(f.key)) > 0;
        const std::size_t up_before = upcalls;
        out1.clear();
        nic0->rx_from_wire(net::build_udp(spec));
        const bool forwarded = out1.size() == 1 && upcalls == up_before;
        const bool upcalled = out1.empty() && upcalls == up_before + 1;
        if (kept ? !forwarded : !upcalled) ++wrong;
    }
    out1.clear();
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(dp->hits() + dp->misses(), flows.size());
    EXPECT_EQ(dp->misses(), upcalls);
    EXPECT_TRUE(collect.violations().empty());
}

} // namespace
} // namespace ovsx::kern

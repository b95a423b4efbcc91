#include <gtest/gtest.h>

#include "ebpf/programs.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/rtnetlink.h"
#include "kern/stack.h"
#include "kern/tap.h"
#include "kern/veth.h"
#include "kern/virtio.h"
#include "net/builder.h"
#include "net/hash.h"
#include "net/headers.h"

namespace ovsx::kern {
namespace {

using net::ipv4;

net::Packet udp64(std::uint32_t dst = ipv4(10, 0, 0, 2), std::uint16_t dport = 2000,
                  std::uint16_t sport = 1000)
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    return net::build_udp(spec);
}

TEST(Nic, RssSpreadsFlowsAcrossQueues)
{
    Kernel kernel;
    NicConfig cfg;
    cfg.num_queues = 4;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);

    std::set<std::uint32_t> queues;
    for (std::uint16_t p = 0; p < 64; ++p) {
        queues.insert(nic.select_queue(udp64(ipv4(10, 0, 0, 2), 2000, p)));
    }
    EXPECT_EQ(queues.size(), 4u); // all queues used
    // Same flow always lands on the same queue.
    EXPECT_EQ(nic.select_queue(udp64()), nic.select_queue(udp64()));
}

TEST(Nic, NtupleSteeringOverridesRss)
{
    Kernel kernel;
    NicConfig cfg;
    cfg.num_queues = 4;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
    nic.add_ntuple_rule({.proto = 17, .dst_port = 4789, .dst_ip = 0, .queue = 3});
    EXPECT_EQ(nic.select_queue(udp64(ipv4(9, 9, 9, 9), 4789)), 3u);
    // Unmatched traffic still goes through RSS.
    nic.clear_ntuple_rules();
    nic.add_ntuple_rule({.proto = 6, .dst_port = 0, .dst_ip = 0, .queue = 2});
    EXPECT_NE(nic.select_queue(udp64()), 2u); // UDP doesn't match the TCP rule... usually
}

TEST(Nic, OneParseServesSteeringAndTheRssHash)
{
    // For RSS on and off, 1 and 4 queues, an ntuple rule or none, and the
    // kernel or the DPDK rx path: a frame lands on select_queue(pkt) and
    // carries its own flow key's hash (none without RSS, or to DPDK).
    for (int combo = 0; combo < 16; ++combo) {
        const bool rss = combo & 1, ntuple = combo & 2, dpdk = combo & 4;
        const std::uint32_t nq = combo & 8 ? 4 : 1;
        SCOPED_TRACE(testing::Message() << "rss " << rss << " queues " << nq << " ntuple "
                                        << ntuple << " dpdk " << dpdk);
        Kernel kernel;
        NicConfig cfg;
        cfg.rss = rss;
        cfg.num_queues = nq;
        auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
        if (ntuple) {
            nic.add_ntuple_rule({.proto = 17, .dst_port = 4789, .dst_ip = 0, .queue = nq - 1});
        }
        std::uint32_t got_q = 99;
        std::uint32_t got_hash = 0;
        bool got_valid = false;
        auto seen = [&](const net::Packet& pkt, std::uint32_t q) {
            got_q = q;
            got_hash = pkt.meta().rxhash;
            got_valid = pkt.meta().rxhash_valid;
        };
        if (dpdk) {
            nic.dpdk_take_over([&](net::Packet&& pkt, std::uint32_t q) { seen(pkt, q); });
        } else {
            nic.set_rx_handler([&](Device&, net::Packet&& pkt, sim::ExecContext& ctx) {
                for (std::uint32_t q = 0; q < nq; ++q) {
                    if (&ctx == &nic.softirq_ctx(q)) seen(pkt, q);
                }
            });
        }
        const bool hashed = rss && !dpdk;
        for (std::uint16_t sport = 1000; sport < 1032; ++sport) {
            const net::Packet pkt = udp64(ipv4(10, 0, 0, 2), sport % 2 ? 4789 : 2000, sport);
            nic.rx_from_wire(net::Packet(pkt));
            EXPECT_EQ(got_q, nic.select_queue(pkt));
            EXPECT_EQ(got_valid, hashed);
            EXPECT_EQ(got_hash, hashed ? net::rxhash_from_key(net::parse_flow(pkt)) : 0u);
        }
        if (dpdk) nic.dpdk_release();
    }
}

TEST(Nic, XdpDropCountsAndCosts)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    nic.attach_xdp(ebpf::xdp_drop_all());
    nic.rx_from_wire(udp64());
    nic.rx_from_wire(udp64());
    EXPECT_EQ(nic.xdp_drops(), 2u);
    EXPECT_GT(nic.softirq_ctx(0).total_busy(), 0);
    EXPECT_EQ(nic.softirq_ctx(0).counter("xdp.run"), 2u);
}

TEST(Nic, XdpTxBouncesPacket)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    nic.attach_xdp(ebpf::xdp_swap_macs_tx());
    int out = 0;
    net::Packet echoed;
    nic.connect_wire([&](net::Packet&& p) {
        echoed = std::move(p);
        ++out;
    });
    nic.rx_from_wire(udp64());
    ASSERT_EQ(out, 1);
    const auto* eth = echoed.header_at<net::EthernetHeader>(0);
    EXPECT_EQ(eth->dst, net::MacAddr::from_id(1)); // swapped
}

TEST(Nic, PerQueueAttachRequiresPerQueueModel)
{
    Kernel kernel;
    NicConfig intel;
    intel.num_queues = 4;
    intel.xdp_model = NicConfig::XdpModel::PerDevice;
    auto& nic_intel = kernel.add_device<PhysicalDevice>("intel0", net::MacAddr::from_id(1), intel);
    EXPECT_THROW(nic_intel.attach_xdp(ebpf::xdp_drop_all(), 2), std::invalid_argument);
    EXPECT_NO_THROW(nic_intel.attach_xdp(ebpf::xdp_drop_all(), -1));

    NicConfig mlx;
    mlx.num_queues = 4;
    mlx.xdp_model = NicConfig::XdpModel::PerQueue;
    auto& nic_mlx = kernel.add_device<PhysicalDevice>("mlx0", net::MacAddr::from_id(2), mlx);
    EXPECT_NO_THROW(nic_mlx.attach_xdp(ebpf::xdp_drop_all(), 2));
    EXPECT_THROW(nic_mlx.attach_xdp(ebpf::xdp_drop_all(), 9), std::out_of_range);
    // Queue 2 has the program; queue 0 has none.
    EXPECT_NE(nic_mlx.xdp_program(2), nullptr);
    EXPECT_EQ(nic_mlx.xdp_program(0), nullptr);
}

TEST(Nic, TsoSegmentsSuperFrames)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    std::vector<net::Packet> wire;
    nic.connect_wire([&](net::Packet&& p) { wire.push_back(std::move(p)); });

    net::TcpSpec spec;
    spec.src_ip = ipv4(1, 1, 1, 1);
    spec.dst_ip = ipv4(2, 2, 2, 2);
    spec.src_port = 1;
    spec.dst_port = 2;
    spec.payload_len = 4000;
    net::Packet super = net::build_tcp(spec);
    super.meta().tso_segsz = 1448;

    sim::ExecContext ctx("stack", sim::CpuClass::Softirq);
    nic.transmit(std::move(super), ctx);

    ASSERT_EQ(wire.size(), 3u); // 1448+1448+1104
    std::size_t total = 0;
    std::uint32_t expect_seq = 0;
    for (auto& seg : wire) {
        const auto* tcp = seg.header_at<net::TcpHeader>(34);
        EXPECT_EQ(tcp->seq(), expect_seq);
        const auto* ip = seg.header_at<net::Ipv4Header>(14);
        const std::size_t payload = ip->total_len() - 20u - 20u;
        expect_seq += static_cast<std::uint32_t>(payload);
        total += payload;
        EXPECT_TRUE(net::verify_l4_csum(seg, 14)) << "segment checksum";
        EXPECT_EQ(seg.meta().tso_segsz, 0);
    }
    EXPECT_EQ(total, 4000u);
}

TEST(Nic, DpdkTakeoverBypassesKernel)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    nic.attach_xdp(ebpf::xdp_drop_all());

    int pmd_rx = 0;
    nic.dpdk_take_over([&](net::Packet&&, std::uint32_t) { ++pmd_rx; });
    nic.rx_from_wire(udp64());
    EXPECT_EQ(pmd_rx, 1);
    EXPECT_EQ(nic.xdp_drops(), 0u);              // XDP never ran
    EXPECT_EQ(nic.softirq_ctx(0).total_busy(), 0); // no kernel CPU at all
    EXPECT_FALSE(nic.kernel_managed());

    nic.dpdk_release();
    EXPECT_TRUE(nic.kernel_managed());
    nic.rx_from_wire(udp64());
    EXPECT_EQ(pmd_rx, 1);
}

TEST(Veth, PairDeliversAcrossNamespaces)
{
    Kernel kernel;
    const int ns = kernel.create_namespace("c0");
    auto [host_end, peer] = VethDevice::create_pair(kernel, "vh", "vc", 0, ns);
    kernel.stack(ns).add_address(peer->ifindex(), ipv4(172, 17, 0, 2), 24);

    int delivered = 0;
    kernel.stack(ns).bind(17, 2000, [&](net::Packet&&, const net::FlowKey&, sim::ExecContext&) {
        ++delivered;
    });

    sim::ExecContext ctx("x", sim::CpuClass::Softirq);
    host_end->transmit(udp64(ipv4(172, 17, 0, 2)), ctx);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(host_end->stats().tx_packets, 1u);
    EXPECT_EQ(peer->stats().rx_packets, 1u);
}

TEST(Veth, XdpOnVethRuns)
{
    Kernel kernel;
    auto [a, b] = VethDevice::create_pair(kernel, "va", "vb");
    b->attach_xdp(ebpf::xdp_drop_all());
    sim::ExecContext ctx("x", sim::CpuClass::Softirq);
    a->transmit(udp64(), ctx);
    EXPECT_EQ(b->stats().rx_dropped, 1u);
}

TEST(Tap, FdWriteEntersKernelAndChargesWriter)
{
    Kernel kernel;
    auto& tap = kernel.add_device<TapDevice>("tap0", net::MacAddr::from_id(7));
    kernel.stack().add_address(tap.ifindex(), ipv4(192, 168, 0, 1), 24);

    int delivered = 0;
    kernel.stack().bind(17, 5000, [&](net::Packet&&, const net::FlowKey&, sim::ExecContext&) {
        ++delivered;
    });

    sim::ExecContext qemu("qemu", sim::CpuClass::User);
    tap.fd_write(udp64(ipv4(192, 168, 0, 1), 5000), qemu);
    EXPECT_EQ(delivered, 1);
    EXPECT_GT(qemu.busy(sim::CpuClass::System), 0); // syscall time
}

TEST(Tap, PacketSocketSendCostsTwoMicroseconds)
{
    // §3.3: the measured ~2 µs sendto cost on a tap.
    Kernel kernel;
    auto& tap = kernel.add_device<TapDevice>("tap0", net::MacAddr::from_id(7));
    int fd_rx = 0;
    tap.set_fd_rx([&](net::Packet&&, sim::ExecContext&) { ++fd_rx; });

    sim::ExecContext ovs("ovs", sim::CpuClass::User);
    tap.packet_socket_send(udp64(), ovs);
    EXPECT_EQ(fd_rx, 1);
    EXPECT_GE(ovs.busy(sim::CpuClass::System), 2000);
}

TEST(Tap, QueuesWhenNoReader)
{
    Kernel kernel;
    auto& tap = kernel.add_device<TapDevice>("tap0", net::MacAddr::from_id(7));
    sim::ExecContext ctx("x", sim::CpuClass::Softirq);
    tap.transmit(udp64(), ctx);
    tap.transmit(udp64(), ctx);
    EXPECT_EQ(tap.fd_queue_depth(), 2u);
    EXPECT_TRUE(tap.fd_read().has_value());
    EXPECT_TRUE(tap.fd_read().has_value());
    EXPECT_FALSE(tap.fd_read().has_value());
}

TEST(Vhost, BackendToGuestAndBack)
{
    Kernel host("host");
    Kernel guest("guest");
    sim::ExecContext guest_ctx("vcpu", sim::CpuClass::Guest);
    sim::ExecContext ovs_ctx("pmd", sim::CpuClass::User);

    VhostUserChannel chan(host.costs());
    auto& vnic = guest.add_device<VirtioNetDevice>("eth0", net::MacAddr::from_id(20), chan,
                                                   guest_ctx);
    guest.stack().add_address(vnic.ifindex(), ipv4(10, 0, 0, 2), 24);

    int guest_got = 0;
    guest.stack().bind(17, 2000, [&](net::Packet&&, const net::FlowKey&, sim::ExecContext&) {
        ++guest_got;
    });

    // Backend (OVS) -> guest.
    ASSERT_TRUE(chan.backend_tx(udp64(ipv4(10, 0, 0, 2)), ovs_ctx));
    EXPECT_EQ(guest_got, 1);
    EXPECT_GT(ovs_ctx.total_busy(), 0);

    // Guest -> backend.
    sim::ExecContext g2("vcpu", sim::CpuClass::Guest);
    vnic.transmit(udp64(ipv4(10, 0, 0, 9)), g2);
    auto polled = chan.backend_rx(ovs_ctx);
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(net::parse_flow(*polled).nw_dst, ipv4(10, 0, 0, 9));
}

TEST(Vhost, OffloadFlagsNegotiated)
{
    Kernel host("host");
    Kernel guest("guest");
    sim::ExecContext guest_ctx("vcpu", sim::CpuClass::Guest);
    sim::ExecContext ovs_ctx("pmd", sim::CpuClass::User);

    VhostUserChannel chan(host.costs());
    auto& vnic = guest.add_device<VirtioNetDevice>("eth0", net::MacAddr::from_id(20), chan,
                                                   guest_ctx);
    vnic.set_offloads(/*csum=*/true, /*tso_segsz=*/1448);

    net::TcpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 2);
    spec.dst_ip = ipv4(10, 0, 0, 9);
    spec.payload_len = 100;
    vnic.transmit(net::build_tcp(spec), guest_ctx);
    auto polled = chan.backend_rx(ovs_ctx);
    ASSERT_TRUE(polled.has_value());
    EXPECT_TRUE(polled->meta().csum_tx_offload);
    EXPECT_EQ(polled->meta().tso_segsz, 1448);
}

TEST(RtNetlink, ToolsSeeKernelDevicesButNotDpdkOnes)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    kernel.add_device<TapDevice>("tap0", net::MacAddr::from_id(2));
    kernel.stack().add_address(nic.ifindex(), ipv4(10, 0, 0, 1), 24);
    kernel.stack().add_neighbor(ipv4(10, 0, 0, 2), net::MacAddr::from_id(9), nic.ifindex());

    EXPECT_EQ(rtnl::link_show(kernel).size(), 2u);
    EXPECT_TRUE(rtnl::link_show(kernel, "eth0").has_value());
    EXPECT_EQ(rtnl::addr_show(kernel).size(), 1u);
    EXPECT_GE(rtnl::route_show(kernel).size(), 1u);
    EXPECT_EQ(rtnl::neigh_show(kernel).size(), 1u);
    EXPECT_TRUE(rtnl::can_reach(kernel, 0, ipv4(10, 0, 0, 2)));

    std::string err;
    EXPECT_TRUE(rtnl::tcpdump_attach(kernel, "eth0", nullptr, &err));

    // DPDK takes the NIC: every tool loses sight of it (Table 1).
    nic.dpdk_take_over([](net::Packet&&, std::uint32_t) {});
    EXPECT_EQ(rtnl::link_show(kernel).size(), 1u);
    EXPECT_FALSE(rtnl::link_show(kernel, "eth0").has_value());
    EXPECT_EQ(rtnl::addr_show(kernel).size(), 0u);
    EXPECT_EQ(rtnl::route_show(kernel).size(), 0u);
    EXPECT_EQ(rtnl::neigh_show(kernel).size(), 0u);
    EXPECT_FALSE(rtnl::can_reach(kernel, 0, ipv4(10, 0, 0, 2)));
    EXPECT_FALSE(rtnl::tcpdump_attach(kernel, "eth0", nullptr, &err));
    EXPECT_NE(err.find("DPDK"), std::string::npos);
}

TEST(RtNetlink, CaptureHookSeesTraffic)
{
    Kernel kernel;
    auto& nic = kernel.add_device<PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    int captured = 0;
    ASSERT_TRUE(rtnl::tcpdump_attach(kernel, "eth0",
                                     [&](const Device&, const net::Packet&, bool) { ++captured; }));
    nic.rx_from_wire(udp64());
    EXPECT_EQ(captured, 1);
}

} // namespace
} // namespace ovsx::kern

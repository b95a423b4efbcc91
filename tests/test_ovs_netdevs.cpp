#include <gtest/gtest.h>

#include "dpdk/mempool.h"
#include "ebpf/programs.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/stack.h"
#include "kern/tap.h"
#include "kern/veth.h"
#include "kern/virtio.h"
#include "net/builder.h"
#include "net/headers.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/netdev_dpdk.h"
#include "ovs/netdev_linux.h"
#include "ovs/netdev_vhost.h"

namespace ovsx::ovs {
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

// A tx burst of one packet.
std::vector<net::Packet> one_packet(net::Packet&& pkt)
{
    std::vector<net::Packet> burst;
    burst.push_back(std::move(pkt));
    return burst;
}

// ---- netdev-afxdp ------------------------------------------------------

TEST(NetdevAfxdpTest, RxDeliversWirePackets)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    NetdevAfxdp dev(nic);
    sim::ExecContext pmd("pmd", sim::CpuClass::User);

    nic.rx_from_wire(udp64(1));
    nic.rx_from_wire(udp64(2));
    std::vector<net::Packet> out;
    EXPECT_EQ(dev.rx_burst(0, out, 32, pmd), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(net::parse_flow(out[0]).tp_src, 1);
    EXPECT_EQ(net::parse_flow(out[1]).tp_src, 2);
    // AF_XDP strips HW metadata: no checksum hint survives (O5 default off
    // means OVS validated in software).
    EXPECT_TRUE(out[0].meta().csum_verified); // validated, at a cost
    EXPECT_GT(pmd.total_busy(), 0);
}

TEST(NetdevAfxdpTest, CsumOffloadOptionSkipsValidationCost)
{
    kern::Kernel host;
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic2 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    AfxdpOptions with = AfxdpOptions::all();
    AfxdpOptions without = AfxdpOptions::all();
    without.csum_offload = false;
    NetdevAfxdp dev_with(nic1, with);
    NetdevAfxdp dev_without(nic2, without);
    sim::ExecContext c1("a", sim::CpuClass::User), c2("b", sim::CpuClass::User);

    nic1.rx_from_wire(udp64());
    nic2.rx_from_wire(udp64());
    std::vector<net::Packet> o1, o2;
    dev_with.rx_burst(0, o1, 32, c1);
    dev_without.rx_burst(0, o2, 32, c2);
    EXPECT_LT(c1.total_busy(), c2.total_busy());
}

TEST(NetdevAfxdpTest, TxGoesOutTheWire)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    std::vector<net::Packet> wire;
    nic.connect_wire([&](net::Packet&& p) { wire.push_back(std::move(p)); });
    NetdevAfxdp dev(nic);
    sim::ExecContext pmd("pmd", sim::CpuClass::User);

    std::vector<net::Packet> batch;
    for (int i = 0; i < 5; ++i) batch.push_back(udp64(static_cast<std::uint16_t>(i)));
    dev.tx_burst(0, std::move(batch), pmd);
    ASSERT_EQ(wire.size(), 5u);
    EXPECT_EQ(net::parse_flow(wire[4]).tp_src, 4);
    // The TX kick is a syscall: system time on the PMD.
    EXPECT_GT(pmd.busy(sim::CpuClass::System), 0);
    EXPECT_EQ(dev.stats().tx_packets, 5u);
}

TEST(NetdevAfxdpTest, TxMaterializesOffloadedChecksum)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    std::vector<net::Packet> wire;
    nic.connect_wire([&](net::Packet&& p) { wire.push_back(std::move(p)); });
    AfxdpOptions opts = AfxdpOptions::all();
    opts.csum_offload = false; // software path must fill checksums
    NetdevAfxdp dev(nic, opts);
    sim::ExecContext pmd("pmd", sim::CpuClass::User);

    net::TcpSpec spec;
    spec.src_ip = ipv4(1, 1, 1, 1);
    spec.dst_ip = ipv4(2, 2, 2, 2);
    spec.payload_len = 64;
    spec.fill_tcp_csum = false;
    net::Packet pkt = net::build_tcp(spec);
    pkt.meta().csum_tx_offload = true;
    dev.tx_burst(0, one_packet(std::move(pkt)), pmd);
    ASSERT_EQ(wire.size(), 1u);
    EXPECT_TRUE(net::verify_l4_csum(wire[0], 14));
    EXPECT_FALSE(wire[0].meta().csum_tx_offload);
}

TEST(NetdevAfxdpTest, UmemExhaustionDropsTx)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    AfxdpOptions opts;
    opts.umem_frames = 8; // 4 on the fill ring, 4 free
    NetdevAfxdp dev(nic, opts);
    // Swallow TX completions never happen because we disconnect the wire.
    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    std::vector<net::Packet> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(udp64());
    dev.tx_burst(0, std::move(batch), pmd);
    EXPECT_GT(dev.stats().tx_dropped, 0u);
}

TEST(NetdevAfxdpTest, CopyFallbackModeWhenNoZerocopy)
{
    kern::Kernel host;
    kern::NicConfig cfg;
    cfg.zerocopy_afxdp = false; // §3.5 limitation: universal copy mode
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
    NetdevAfxdp dev(nic);
    EXPECT_EQ(dev.xsk(0).mode(), afxdp::BindMode::Copy);

    kern::NicConfig zc;
    auto& nic2 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), zc);
    NetdevAfxdp dev2(nic2);
    EXPECT_EQ(dev2.xsk(0).mode(), afxdp::BindMode::ZeroCopy);
}

TEST(NetdevAfxdpTest, CustomProgramMustVerify)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    NetdevAfxdp dev(nic);
    // An invalid program (packet access without bounds check) is refused.
    ebpf::ProgramBuilder bad("bad");
    bad.mov_reg(ebpf::R6, ebpf::R1)
        .ldxdw(ebpf::R2, ebpf::R6, 0)
        .ldxb(ebpf::R0, ebpf::R2, 0)
        .exit();
    EXPECT_THROW(dev.load_custom_xdp(bad.build()), std::runtime_error);
    // A good one loads.
    EXPECT_NO_THROW(dev.load_custom_xdp(ebpf::xdp_redirect_to_xsk(dev.xsk_map())));
}

TEST(NetdevAfxdpTest, MultiqueueComputesSoftwareRxhash)
{
    kern::Kernel host;
    kern::NicConfig cfg;
    cfg.num_queues = 4;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
    NetdevAfxdp dev(nic);
    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    net::Packet pkt = udp64();
    const auto q = nic.select_queue(pkt);
    nic.rx_from_wire(std::move(pkt));
    std::vector<net::Packet> out;
    ASSERT_EQ(dev.rx_burst(q, out, 32, pmd), 1u);
    EXPECT_TRUE(out[0].meta().rxhash_valid); // recomputed in software
}

// ---- netdev-linux ---------------------------------------------------------

TEST(NetdevLinuxTest, StealsDeviceIngress)
{
    kern::Kernel host;
    auto& tap = host.add_device<kern::TapDevice>("tap0", net::MacAddr::from_id(3));
    NetdevLinux dev(tap);
    sim::ExecContext qemu("qemu", sim::CpuClass::User);
    tap.fd_write(udp64(), qemu); // guest sends
    EXPECT_EQ(dev.rx_queue_depth(), 1u);

    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    std::vector<net::Packet> out;
    EXPECT_EQ(dev.rx_burst(0, out, 32, pmd), 1u);
    EXPECT_GT(pmd.busy(sim::CpuClass::System), 0); // recvmmsg
}

TEST(NetdevLinuxTest, TxBatchAmortizesSyscall)
{
    kern::Kernel host;
    auto& tap = host.add_device<kern::TapDevice>("tap0", net::MacAddr::from_id(3));
    int fd_rx = 0;
    tap.set_fd_rx([&](net::Packet&&, sim::ExecContext&) { ++fd_rx; });

    NetdevLinux dev(tap);
    sim::ExecContext one("one", sim::CpuClass::User);
    dev.tx_burst(0, one_packet(udp64()), one);
    const auto single_cost = one.total_busy();

    sim::ExecContext batch_ctx("batch", sim::CpuClass::User);
    std::vector<net::Packet> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(udp64());
    dev.tx_burst(0, std::move(batch), batch_ctx);
    EXPECT_EQ(fd_rx, 9);
    // 8 packets cost far less than 8x a single send.
    EXPECT_LT(batch_ctx.total_busy(), 8 * single_cost);
}

TEST(NetdevLinuxTest, DetachRestoresStackDelivery)
{
    kern::Kernel host;
    auto& tap = host.add_device<kern::TapDevice>("tap0", net::MacAddr::from_id(3));
    host.stack().add_address(tap.ifindex(), ipv4(10, 0, 0, 2), 24);
    int stack_rx = 0;
    host.stack().bind(17, 2000, [&](net::Packet&&, const net::FlowKey&, sim::ExecContext&) {
        ++stack_rx;
    });
    sim::ExecContext qemu("q", sim::CpuClass::User);
    {
        NetdevLinux dev(tap);
        tap.fd_write(udp64(), qemu);
        EXPECT_EQ(stack_rx, 0); // stolen by the packet socket
    }
    tap.fd_write(udp64(), qemu);
    EXPECT_EQ(stack_rx, 1); // netdev destroyed -> stack gets it again
}

// ---- netdev-vhost -----------------------------------------------------------

TEST(NetdevVhostTest, BidirectionalWithStats)
{
    kern::Kernel host;
    kern::VhostUserChannel chan(host.costs());
    int guest_got = 0;
    chan.set_guest_rx([&](net::Packet&&, sim::ExecContext&) { ++guest_got; });
    NetdevVhost dev("vhost0", chan);
    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    sim::ExecContext vcpu("vcpu", sim::CpuClass::Guest);

    dev.tx_burst(0, one_packet(udp64()), pmd);
    EXPECT_EQ(guest_got, 1);
    EXPECT_EQ(dev.stats().tx_packets, 1u);

    chan.guest_tx(udp64(7), vcpu);
    std::vector<net::Packet> out;
    EXPECT_EQ(dev.rx_burst(0, out, 32, pmd), 1u);
    EXPECT_EQ(net::parse_flow(out[0]).tp_src, 7);
    EXPECT_EQ(dev.stats().rx_packets, 1u);
}

// ---- netdev-dpdk ---------------------------------------------------------------

TEST(NetdevDpdkTest, RoundTripBypassesKernel)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    std::vector<net::Packet> wire;
    nic.connect_wire([&](net::Packet&& p) { wire.push_back(std::move(p)); });
    dpdk::Mempool pool(256, 2176);
    NetdevDpdk dev(nic, pool);
    EXPECT_FALSE(nic.kernel_managed());

    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    nic.rx_from_wire(udp64());
    std::vector<net::Packet> out;
    ASSERT_EQ(dev.rx_burst(0, out, 32, pmd), 1u);
    EXPECT_EQ(nic.softirq_ctx(0).total_busy(), 0); // zero kernel time

    dev.tx_burst(0, std::move(out), pmd);
    EXPECT_EQ(wire.size(), 1u);
    EXPECT_EQ(pmd.busy(sim::CpuClass::System), 0); // no syscalls either
}

TEST(NetdevDpdkTest, QueueOverflowDrops)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    dpdk::Mempool pool(256, 2176);
    NetdevDpdk dev(nic, pool);
    for (int i = 0; i < 5000; ++i) nic.rx_from_wire(udp64());
    EXPECT_GT(dev.ethdev().rx_dropped(), 0u);
}

TEST(MempoolTest, AllocFreeCycle)
{
    dpdk::Mempool pool(4, 2176);
    EXPECT_EQ(pool.available(), 4u);
    auto a = pool.alloc();
    auto b = pool.alloc();
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->index, b->index);
    EXPECT_EQ(pool.available(), 2u);
    auto c = pool.alloc();
    auto d = pool.alloc();
    EXPECT_FALSE(pool.alloc().has_value()); // exhausted
    pool.free(*a);
    auto e = pool.alloc();
    EXPECT_TRUE(e.has_value());
    EXPECT_THROW(pool.free(dpdk::Mbuf{99}), std::out_of_range);
    // Return everything: ~Mempool audits outstanding mbufs as leaks
    // (hardened mode turns that audit into a hard failure).
    pool.free(*b);
    pool.free(*c);
    pool.free(*d);
    pool.free(*e);
}

} // namespace
} // namespace ovsx::ovs

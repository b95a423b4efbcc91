#include <gtest/gtest.h>

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/virtio.h"
#include "net/builder.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/vswitch.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::Packet udp64(std::uint16_t sport = 1000)
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = ipv4(10, 0, 0, 2);
    spec.src_port = sport;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

// The traditional split architecture driven through the same VSwitch /
// ofproto control plane as the AF_XDP datapath — the point of the Dpif
// abstraction.
TEST(DpifKernelTest, VSwitchDrivesTheKernelModule)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    auto& kdp = host.ovs_datapath();
    const auto p0 = kdp.add_port(nic0);
    const auto p1 = kdp.add_port(nic1);

    VSwitch vswitch(std::make_unique<DpifKernel>(kdp));
    Match m;
    m.key.in_port = p0;
    m.mask.bits.in_port = 0xffffffff;
    vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                .actions = {OfAction::output(p1)}});

    // First packet: kernel upcall -> ofproto xlate -> kernel flow_put +
    // re-inject. Later packets hit the kernel flow table directly.
    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    EXPECT_EQ(forwarded, 1u);
    EXPECT_EQ(kdp.flow_count(), 1u);

    for (std::uint16_t s = 0; s < 50; ++s) nic0.rx_from_wire(udp64(s));
    EXPECT_EQ(forwarded, 51u);
    EXPECT_EQ(vswitch.upcalls_handled(), 1u); // megaflow covered them all
    EXPECT_EQ(kdp.hits(), 50u);
    // All datapath work was kernel softirq — no userspace PMD exists.
    EXPECT_GT(nic0.softirq_ctx(0).busy(sim::CpuClass::Softirq), 0);
}

// Clearing the handler through Dpif& must leave the module without one:
// the next miss is counted lost, not sent to an empty std::function.
TEST(DpifKernelTest, ClearedUpcallHandlerCountsMissesAsLost)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& kdp = host.ovs_datapath();
    kdp.add_port(nic0);
    DpifKernel kernel_dpif(kdp);
    Dpif& dpif = kernel_dpif;
    dpif.set_upcall_handler(
        [](std::uint32_t, net::Packet&&, const net::FlowKey&, sim::ExecContext&) {});
    dpif.set_upcall_handler({});
    EXPECT_NO_THROW(nic0.rx_from_wire(udp64()));
    EXPECT_EQ(kdp.lost(), 1u);
}

TEST(DpifKernelTest, FlowFlushForcesReUpcall)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    nic1.connect_wire([](net::Packet&&) {});
    auto& kdp = host.ovs_datapath();
    const auto p0 = kdp.add_port(nic0);
    const auto p1 = kdp.add_port(nic1);

    VSwitch vswitch(std::make_unique<DpifKernel>(kdp));
    Match m;
    m.key.in_port = p0;
    m.mask.bits.in_port = 0xffffffff;
    vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                .actions = {OfAction::output(p1)}});

    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    vswitch.dpif().flow_flush(); // e.g. a revalidation after rule changes
    EXPECT_EQ(vswitch.dpif().flow_count(), 0u);
    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 2u);
}

TEST(DpifKernelTest, SameRulesDifferentDatapaths)
{
    // The same ofproto pipeline drives either datapath provider — the
    // architectural claim behind "OVS with AF_XDP needs no NSX changes"
    // (§4: NSX accesses features via OVSDB/OpenFlow, not the kernel).
    for (const bool use_kernel : {true, false}) {
        kern::Kernel host("host");
        auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        std::uint64_t forwarded = 0;
        nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

        std::unique_ptr<Dpif> dpif;
        std::uint32_t p0, p1;
        DpifNetdev* nd = nullptr;
        int pmd = -1;
        if (use_kernel) {
            auto& kdp = host.ovs_datapath();
            p0 = kdp.add_port(nic0);
            p1 = kdp.add_port(nic1);
            dpif = std::make_unique<DpifKernel>(kdp);
        } else {
            auto owned = std::make_unique<DpifNetdev>(host);
            nd = owned.get();
            p0 = nd->add_port(std::make_unique<NetdevAfxdp>(nic0));
            p1 = nd->add_port(std::make_unique<NetdevAfxdp>(nic1));
            pmd = nd->add_pmd("pmd0");
            nd->pmd_assign(pmd, p0, 0);
            dpif = std::move(owned);
        }
        VSwitch vswitch(std::move(dpif));
        Match m;
        m.key.in_port = p0;
        m.mask.bits.in_port = 0xffffffff;
        vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                    .actions = {OfAction::output(p1)}});

        for (int i = 0; i < 10; ++i) nic0.rx_from_wire(udp64());
        if (nd) {
            while (nd->pmd_poll_once(pmd) > 0) {
            }
        }
        EXPECT_EQ(forwarded, 10u) << (use_kernel ? "kernel" : "afxdp");
    }
}

TEST(VhostChannelTest, RingFullDropsAreCounted)
{
    kern::Kernel host("host");
    kern::VhostUserChannel chan(host.costs(), {}, /*ring_size=*/4);
    sim::ExecContext guest("vcpu", sim::CpuClass::Guest);
    // The backend never polls: the guest's 5th packet finds no slot.
    for (int i = 0; i < 6; ++i) chan.guest_tx(udp64(), guest);
    EXPECT_EQ(chan.drops(), 2u);
    // Draining restores capacity.
    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    while (chan.backend_rx(pmd)) {
    }
    EXPECT_TRUE(chan.guest_tx(udp64(), guest));
    EXPECT_EQ(chan.drops(), 2u);
}

TEST(VhostChannelTest, KickChargedOnlyForInterruptGuests)
{
    kern::Kernel host("host");
    kern::VirtioFeatures polling;
    polling.guest_polling = true;
    kern::VhostUserChannel poll_chan(host.costs(), polling);
    kern::VhostUserChannel irq_chan(host.costs(), {});
    poll_chan.set_guest_rx([](net::Packet&&, sim::ExecContext&) {});
    irq_chan.set_guest_rx([](net::Packet&&, sim::ExecContext&) {});

    sim::ExecContext c1("a", sim::CpuClass::User), c2("b", sim::CpuClass::User);
    poll_chan.backend_tx(udp64(), c1);
    irq_chan.backend_tx(udp64(), c2);
    EXPECT_GT(c2.total_busy(), c1.total_busy()); // the eventfd kick
}

} // namespace
} // namespace ovsx::ovs

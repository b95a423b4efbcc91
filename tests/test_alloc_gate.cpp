// Zero-allocation gate for the forwarding paths: once warm, forwarding
// a packet through the eBPF datapath or through the userspace datapath
// over AF_XDP or DPDK ports, and running the AF_XDP redirect program,
// must not touch the heap; an upcall may allocate, up to a fixed bound.
// This binary replaces the global operator new and delete to count
// allocations, which is why it is its own executable. It is the check
// for a change to any per-packet path.
//
// The measured loops run with ovsx::san hardened mode off: its ledgers
// allocate by design.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ebpf/programs.h"
#include "ebpf/vm.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "net/builder.h"
#include "net/flow.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/netdev_dpdk.h"
#include "san/report.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t n, std::size_t align = alignof(std::max_align_t))
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n ? n : 1);
    } else if (posix_memalign(&p, align, n ? n : 1) != 0) {
        p = nullptr;
    }
    return p;
}

void* allocate_or_throw(std::size_t n, std::size_t align = alignof(std::max_align_t))
{
    if (void* p = allocate(n, align)) return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return allocate_or_throw(n); }
void* operator new[](std::size_t n) { return allocate_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a)
{
    return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept
{
    return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept
{
    return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace ovsx {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

struct HardenedOff {
    bool prev = san::hardened();
    HardenedOff() { san::set_hardened(false); }
    ~HardenedOff() { san::set_hardened(prev); }
};

net::Packet udp(std::uint16_t src_port)
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = net::ipv4(10, 0, 0, 1);
    spec.dst_ip = net::ipv4(10, 0, 0, 2);
    spec.src_port = src_port;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

TEST(AllocGate, EbpfDatapathForwardsWithoutAllocating)
{
    HardenedOff hardened_off;
    constexpr int kFlows = 1000, kWarm = 4000, kMeasured = 20000;
    kern::Kernel host;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::uint64_t out = 0;
    nic1.connect_wire([&](net::Packet&&) { ++out; });

    ovs::DpifEbpf dpif(host);
    const std::uint32_t p0 = dpif.add_port(nic0);
    const std::uint32_t p1 = dpif.add_port(nic1);
    std::vector<net::Packet> flows;
    for (int i = 0; i < kFlows; ++i) {
        flows.push_back(udp(static_cast<std::uint16_t>(1000 + i)));
        net::FlowKey key = net::parse_flow(flows.back());
        key.in_port = p0;
        dpif.flow_put(key, ovs::DpifEbpf::required_mask(), {kern::OdpAction::output(p1)});
    }

    // Packets are built before each loop: only the datapath is measured.
    auto burst = [&](int n) {
        std::vector<net::Packet> pkts;
        pkts.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) pkts.push_back(flows[static_cast<std::size_t>(i % kFlows)]);
        return pkts;
    };
    for (net::Packet& pkt : burst(kWarm)) nic0.rx_from_wire(std::move(pkt));

    std::vector<net::Packet> measured = burst(kMeasured);
    const std::uint64_t before = allocations();
    for (net::Packet& pkt : measured) nic0.rx_from_wire(std::move(pkt));
    const std::uint64_t allocs = allocations() - before;

    EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kMeasured << " allocations per packet";
    EXPECT_EQ(out, static_cast<std::uint64_t>(kWarm + kMeasured));
    EXPECT_EQ(dpif.hits(), static_cast<std::uint64_t>(kWarm + kMeasured));
}

TEST(AllocGate, XdpRedirectProgramRunsWithoutAllocating)
{
    HardenedOff hardened_off;
    constexpr int kRuns = 10000;
    auto xsk = std::make_shared<ebpf::Map>(ebpf::MapType::XskMap, "xsks", 4, 4, 4);
    ASSERT_TRUE(xsk->update_kv(std::uint32_t{0}, std::uint32_t{1}));
    const ebpf::Image image = ebpf::load(ebpf::xdp_redirect_to_xsk(xsk));
    ASSERT_TRUE(image.verified()) << image.verdict().error;
    ebpf::Vm vm;
    net::Packet pkt = udp(1000);
    for (int i = 0; i < 100; ++i) (void)vm.run_xdp(image, pkt, 1, 0);

    int redirected = 0;
    const std::uint64_t before = allocations();
    for (int i = 0; i < kRuns; ++i) {
        redirected += vm.run_xdp(image, pkt, 1, 0).action == ebpf::XdpAction::Redirect;
    }
    const std::uint64_t allocs = allocations() - before;

    EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kRuns << " allocations per run";
    EXPECT_EQ(redirected, kRuns);
}

// The p2p shape of the wall-clock benchmark: a userspace datapath over
// three NIC ports with one PMD; 1,000 flows arrive on the first port
// and leave by the other two, each installed by an upcall.
class UserspaceP2p {
public:
    static constexpr int kFlows = 1000;
    static constexpr int kBurst = 32;

    explicit UserspaceP2p(bool afxdp)
    {
        for (int i = 0; i < 3; ++i) {
            const auto id = static_cast<std::uint32_t>(i + 1);
            nics_[i] = &host_.add_device<kern::PhysicalDevice>("eth" + std::to_string(i),
                                                               net::MacAddr::from_id(id));
            nics_[i]->connect_wire([this](net::Packet&&) { ++forwarded_; });
            if (afxdp) {
                ports_[i] = dpif_.add_port(
                    std::make_unique<ovs::NetdevAfxdp>(*nics_[i], ovs::AfxdpOptions::all()));
            } else {
                ports_[i] = dpif_.add_port(std::make_unique<ovs::NetdevDpdk>(*nics_[i], pool_));
            }
        }
        pmd_ = dpif_.add_pmd("pmd0");
        for (std::uint32_t port : ports_) dpif_.pmd_assign(pmd_, port, 0);
        dpif_.set_upcall_handler([this](std::uint32_t, net::Packet&& pkt,
                                        const net::FlowKey& key, sim::ExecContext& ctx) {
            ++upcalls_;
            net::FlowMask mask;
            mask.bits.in_port = 0xffffffff;
            mask.bits.recirc_id = 0xffffffff;
            mask.bits.tp_src = 0xffff;
            const kern::OdpActions actions{kern::OdpAction::output(ports_[1 + key.tp_src % 2])};
            dpif_.flow_put(key, mask, actions);
            dpif_.execute(std::move(pkt), actions, ctx);
        });
    }

    // Offers `n` packets of flows [first_flow, first_flow + flows) in
    // bursts: kBurst frames from the wire, then PMD polls until the
    // burst is gone. Flow i has source port 1000 + i. Each burst is
    // built just before it is offered, as the wall-clock benchmark does,
    // and only the datapath's allocations are counted and returned.
    std::uint64_t offer(int n, int first_flow = 0, int flows = kFlows)
    {
        std::vector<net::Packet> burst;
        burst.reserve(kBurst);
        std::uint64_t allocs = 0;
        for (int i = 0; i < n;) {
            burst.clear();
            for (int k = 0; k < kBurst && i < n; ++k, ++i) {
                burst.push_back(udp(static_cast<std::uint16_t>(1000 + first_flow + i % flows)));
            }
            const std::uint64_t before = allocations();
            for (net::Packet& pkt : burst) nics_[0]->rx_from_wire(std::move(pkt));
            while (dpif_.pmd_poll_once(pmd_) > 0) {}
            allocs += allocations() - before;
        }
        return allocs;
    }

    // Sends `n` packets from outside any rx burst, one execute() with a
    // single output action each, on the PMD's context. Returns the
    // datapath's allocations.
    std::uint64_t execute(int n)
    {
        const kern::OdpActions actions{kern::OdpAction::output(ports_[1])};
        std::uint64_t allocs = 0;
        for (int i = 0; i < n; ++i) {
            net::Packet pkt = udp(static_cast<std::uint16_t>(1000 + i % kFlows));
            const std::uint64_t before = allocations();
            dpif_.execute(std::move(pkt), actions, dpif_.pmd_ctx(pmd_));
            allocs += allocations() - before;
        }
        return allocs;
    }

    std::uint64_t forwarded() const { return forwarded_; }
    std::uint64_t upcalls() const { return upcalls_; }
    std::uint64_t hits() const { return dpif_.stats().hits; }

private:
    kern::Kernel host_;
    dpdk::Mempool pool_{4096, 2176};
    ovs::DpifNetdev dpif_{host_};
    kern::PhysicalDevice* nics_[3] = {};
    std::uint32_t ports_[3] = {};
    int pmd_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t upcalls_ = 0;
};

void userspace_forwards_without_allocating(bool afxdp)
{
    HardenedOff hardened_off;
    constexpr int kWarm = 8 * UserspaceP2p::kFlows;
    constexpr int kMeasured = 200 * UserspaceP2p::kBurst;
    UserspaceP2p p2p(afxdp);
    p2p.offer(kWarm);
    ASSERT_EQ(p2p.upcalls(), static_cast<std::uint64_t>(UserspaceP2p::kFlows));
    ASSERT_EQ(p2p.forwarded(), static_cast<std::uint64_t>(kWarm));

    const std::uint64_t hits_before = p2p.hits();
    const std::uint64_t allocs = p2p.offer(kMeasured);

    EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kMeasured << " allocations per packet";
    EXPECT_EQ(p2p.forwarded(), static_cast<std::uint64_t>(kWarm + kMeasured));
    EXPECT_EQ(p2p.hits() - hits_before, static_cast<std::uint64_t>(kMeasured));
    EXPECT_EQ(p2p.upcalls(), static_cast<std::uint64_t>(UserspaceP2p::kFlows));
}

TEST(AllocGate, AfxdpUserspaceDatapathForwardsWithoutAllocating)
{
    userspace_forwards_without_allocating(/*afxdp=*/true);
}

TEST(AllocGate, DpdkUserspaceDatapathForwardsWithoutAllocating)
{
    userspace_forwards_without_allocating(/*afxdp=*/false);
}

TEST(AllocGate, UserspaceExecuteOutsideABurstSendsWithoutAllocating)
{
    // An execute() outside an rx burst (a packet-out) queues its output
    // on the port's batch and flushes it, as a burst does.
    constexpr int kExecutes = 256;
    for (const bool afxdp : {true, false}) {
        HardenedOff hardened_off;
        UserspaceP2p p2p(afxdp);
        p2p.offer(4 * UserspaceP2p::kFlows);
        const std::uint64_t forwarded = p2p.forwarded();
        const std::uint64_t allocs = p2p.execute(kExecutes);

        EXPECT_EQ(allocs, 0u) << (afxdp ? "afxdp: " : "dpdk: ")
                              << static_cast<double>(allocs) / kExecutes
                              << " allocations per packet";
        EXPECT_EQ(p2p.forwarded() - forwarded, static_cast<std::uint64_t>(kExecutes));
    }
}

TEST(AllocGate, UserspaceUpcallAllocatesAtMostABound)
{
    // Install and execute on a miss: the megaflow entry, its actions and
    // the handler's own action list. 4.47 per upcall when pinned.
    constexpr std::uint64_t kPerUpcall = 5;
    constexpr int kNew = 256;
    for (const bool afxdp : {true, false}) {
        HardenedOff hardened_off;
        UserspaceP2p p2p(afxdp);
        p2p.offer(4 * UserspaceP2p::kFlows);
        const std::uint64_t allocs = p2p.offer(kNew, UserspaceP2p::kFlows, kNew);

        EXPECT_EQ(p2p.upcalls(), static_cast<std::uint64_t>(UserspaceP2p::kFlows + kNew));
        EXPECT_LE(allocs, kPerUpcall * kNew)
            << (afxdp ? "afxdp: " : "dpdk: ") << static_cast<double>(allocs) / kNew
            << " allocations per upcall";
    }
}

} // namespace
} // namespace ovsx

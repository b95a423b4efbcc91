// Zero-allocation gate for the eBPF paths: once warm, forwarding a
// packet through the eBPF datapath and running the AF_XDP redirect
// program must not touch the heap. This binary replaces the global
// operator new and delete to count allocations, which is why it is its
// own executable.
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

} // namespace
} // namespace ovsx

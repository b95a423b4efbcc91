// Failure injection and fuzz-style robustness: random bytes through the
// parsers, decapsulators, datapaths and the eBPF verifier/VM must never
// crash, and verifier-accepted programs must never fault at runtime
// (the soundness property the whole eBPF safety story rests on).
#include <gtest/gtest.h>

#include "ebpf/programs.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "net/builder.h"
#include "net/flow.h"
#include "net/tunnel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "sim/rng.h"

namespace ovsx {
namespace {

net::Packet random_packet(sim::Rng& rng, std::size_t max_len = 256)
{
    const std::size_t len = rng.below(max_len + 1);
    net::Packet pkt(len);
    for (std::size_t i = 0; i < len; ++i) {
        pkt.data()[i] = static_cast<std::uint8_t>(rng.next());
    }
    return pkt;
}

TEST(Robustness, ParserNeverCrashesOnGarbage)
{
    sim::Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        net::Packet pkt = random_packet(rng);
        const auto key = net::parse_flow(pkt);
        // Whatever was parsed must be internally consistent: L4 fields
        // require an L3 protocol.
        if (key.tp_src || key.tp_dst) {
            EXPECT_TRUE(key.nw_proto == 6 || key.nw_proto == 17);
        }
        (void)net::locate_headers(pkt);
    }
}

TEST(Robustness, DecapNeverCrashesOnGarbage)
{
    sim::Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        net::Packet pkt = random_packet(rng);
        const std::size_t before = pkt.size();
        auto res = net::decapsulate_auto(pkt);
        if (!res) {
            EXPECT_EQ(pkt.size(), before); // rejection must not consume bytes
        }
    }
}

TEST(Robustness, XdpProgramsSurviveGarbage)
{
    kern::Kernel host;
    auto l2 = std::make_shared<ebpf::Map>(ebpf::MapType::Hash, "l2", 8, 4, 64);
    ebpf::Vm vm;
    sim::Rng rng(3);
    const ebpf::Program progs[] = {ebpf::xdp_parse_drop(), ebpf::xdp_parse_lookup_drop(l2),
                                   ebpf::xdp_swap_macs_tx()};
    for (int i = 0; i < 2000; ++i) {
        net::Packet pkt = random_packet(rng, 128);
        for (const auto& prog : progs) {
            const auto res = vm.run_xdp(prog, pkt);
            // Verified programs must never abort, no matter the input.
            EXPECT_NE(res.action, ebpf::XdpAction::Aborted) << prog.name << ": " << res.fault;
        }
    }
}

TEST(Robustness, DatapathSurvivesGarbageFromTheWire)
{
    kern::Kernel host;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::uint64_t out = 0;
    nic1.connect_wire([&](net::Packet&&) { ++out; });

    ovs::DpifNetdev dpif(host);
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1));
    net::FlowKey key;
    key.in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dpif.flow_put(key, mask, {kern::OdpAction::output(p1)});
    const int pmd = dpif.add_pmd("pmd0");
    dpif.pmd_assign(pmd, p0, 0);

    sim::Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        nic0.rx_from_wire(random_packet(rng, 192));
        if ((i & 31) == 31) {
            while (dpif.pmd_poll_once(pmd) > 0) {
            }
        }
    }
    while (dpif.pmd_poll_once(pmd) > 0) {
    }
    EXPECT_GT(out, 0u); // wildcard flow forwards even garbage
}

TEST(Robustness, VerifierSoundOnRandomPrograms)
{
    // Generate random (mostly invalid) programs. The verifier must never
    // crash; anything it ACCEPTS must then run to completion in the VM
    // without a runtime fault — that's the soundness contract.
    sim::Rng rng(5);
    int accepted = 0, faulted_after_accept = 0;
    ebpf::Vm vm;
    for (int trial = 0; trial < 3000; ++trial) {
        ebpf::Program prog;
        prog.name = "fuzz";
        const int n = 1 + static_cast<int>(rng.below(24));
        for (int i = 0; i < n; ++i) {
            ebpf::Insn insn;
            insn.op = static_cast<ebpf::Op>(rng.below(static_cast<std::uint64_t>(
                static_cast<int>(ebpf::Op::Exit) + 1)));
            insn.dst = static_cast<std::uint8_t>(rng.below(12)); // incl. invalid r11
            insn.src = static_cast<std::uint8_t>(rng.below(12));
            insn.off = static_cast<std::int16_t>(rng.next());
            insn.imm = static_cast<std::int64_t>(rng.next() % 512) - 256;
            prog.insns.push_back(insn);
        }
        prog.insns.push_back({ebpf::Op::Exit, 0, 0, 0, 0});

        const auto verdict = ebpf::verify(prog);
        if (!verdict.ok) continue;
        ++accepted;
        net::Packet pkt = random_packet(rng, 96);
        const auto res = vm.run_xdp(prog, pkt);
        if (res.action == ebpf::XdpAction::Aborted &&
            res.fault.find("memory") != std::string::npos) {
            ++faulted_after_accept;
        }
    }
    EXPECT_EQ(faulted_after_accept, 0) << "verifier accepted a memory-unsafe program";
    // Sanity: random programs are occasionally trivially valid.
    EXPECT_GE(accepted, 0);
}

TEST(Robustness, CsumDiffLengthCannotWrapTheBoundsCheck)
{
    // The verifier does not check csum_diff's arguments, so it accepts a
    // program that asks for 2^32 - 2 bytes from the packet start. The
    // runtime check compares sizes without forming addr + size, so the
    // length cannot wrap it: the run faults instead of reading 4 GiB.
    ebpf::ProgramBuilder b("csum_wrap");
    b.mov_reg(ebpf::R6, ebpf::R1)
        .ldxdw(ebpf::R2, ebpf::R6, 0)
        .ldxdw(ebpf::R3, ebpf::R6, 8)
        .mov_reg(ebpf::R4, ebpf::R2)
        .add_imm(ebpf::R4, 14)
        .jgt_reg(ebpf::R4, ebpf::R3, "out")
        .mov_reg(ebpf::R3, ebpf::R2) // `to`: the packet start
        .mov_imm(ebpf::R4, -2)       // `to_size`: 0xfffffffe as a u32
        .mov_imm(ebpf::R5, 0)
        .call(ebpf::HelperId::CsumDiff)
        .label("out")
        .mov_imm(ebpf::R0, 2)
        .exit();
    const ebpf::Program prog = b.build();
    const auto verdict = ebpf::verify(prog);
    ASSERT_TRUE(verdict.ok) << verdict.error;

    net::UdpSpec spec;
    net::Packet pkt = net::build_udp(spec);
    ebpf::Vm vm;
    const auto res = vm.run_xdp(prog, pkt);
    EXPECT_EQ(res.action, ebpf::XdpAction::Aborted);
    EXPECT_EQ(res.fault, "out-of-bounds memory access");
}

TEST(Robustness, TruncatedTunnelsAtEveryLength)
{
    // Encapsulate, then truncate the outer packet to every possible
    // length: decap must reject or produce a consistent inner packet,
    // never crash.
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(1, 1, 1, 1);
    spec.dst_ip = net::ipv4(2, 2, 2, 2);
    net::Packet base = net::build_udp(spec);
    net::TunnelKey key;
    key.tun_id = 7;
    key.ip_src = net::ipv4(172, 16, 0, 1);
    key.ip_dst = net::ipv4(172, 16, 0, 2);
    net::EncapParams params;
    params.outer_src_mac = net::MacAddr::from_id(1);
    params.outer_dst_mac = net::MacAddr::from_id(2);
    net::encapsulate(base, net::TunnelType::Geneve, key, params);

    for (std::size_t len = 0; len <= base.size(); ++len) {
        net::Packet pkt = net::Packet::from_bytes(base.bytes().subspan(0, len));
        (void)net::decapsulate_auto(pkt);
        (void)net::parse_flow(pkt);
    }
}

TEST(Robustness, MeterlessAndFlowlessDatapathsDropCleanly)
{
    kern::Kernel host;
    auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    ovs::DpifNetdev dpif(host);
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic));
    (void)p0;
    const int pmd = dpif.add_pmd("pmd0");
    dpif.pmd_assign(pmd, p0, 0);
    // No flows, no upcall handler: everything must drop, counted.
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(1, 1, 1, 1);
    spec.dst_ip = net::ipv4(2, 2, 2, 2);
    for (int i = 0; i < 10; ++i) nic.rx_from_wire(net::build_udp(spec));
    while (dpif.pmd_poll_once(pmd) > 0) {
    }
    EXPECT_EQ(dpif.dropped(), 10u);
    EXPECT_EQ(dpif.stats().misses, 10u);
}

// ---- AF_XDP option matrix: every combination must forward correctly ----

class AfxdpMatrix : public ::testing::TestWithParam<int> {};

TEST_P(AfxdpMatrix, ForwardsCorrectlyUnderAnyOptionCombo)
{
    const int bits = GetParam();
    ovs::AfxdpOptions opts;
    opts.pmd_mode = true;
    opts.lock = (bits & 1) ? ovs::AfxdpOptions::Lock::Mutex : ovs::AfxdpOptions::Lock::Spinlock;
    opts.lock_batching = (bits & 2) != 0;
    opts.metadata_prealloc = (bits & 4) != 0;
    opts.csum_offload = (bits & 8) != 0;

    kern::Kernel host;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::vector<net::Packet> out;
    nic1.connect_wire([&](net::Packet&& p) { out.push_back(std::move(p)); });

    ovs::DpifNetdev dpif(host);
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, opts));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, opts));
    net::FlowKey key;
    key.in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dpif.flow_put(key, mask, {kern::OdpAction::output(p1)});
    const int pmd = dpif.add_pmd("pmd0");
    dpif.pmd_assign(pmd, p0, 0);

    net::UdpSpec spec;
    spec.src_ip = net::ipv4(10, 0, 0, 1);
    spec.dst_ip = net::ipv4(10, 0, 0, 2);
    spec.src_port = 42;
    spec.dst_port = 4242;
    const net::Packet original = net::build_udp(spec);
    for (int i = 0; i < 100; ++i) {
        nic0.rx_from_wire(net::build_udp(spec));
        while (dpif.pmd_poll_once(pmd) > 0) {
        }
    }
    ASSERT_EQ(out.size(), 100u);
    // Bytes survive the umem round trips unmodified.
    EXPECT_EQ(0, std::memcmp(out[0].data(), original.data(), original.size()));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, AfxdpMatrix, ::testing::Range(0, 16));

} // namespace
} // namespace ovsx

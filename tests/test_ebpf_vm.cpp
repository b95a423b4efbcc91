#include <gtest/gtest.h>

#include "ebpf/program.h"
#include "ebpf/vm.h"
#include "net/builder.h"

namespace ovsx::ebpf {
namespace {

net::Packet udp64()
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

RunResult run(const Program& prog, net::Packet& pkt)
{
    Vm vm;
    return vm.run_xdp(prog, pkt);
}

TEST(EbpfVm, MovAndExit)
{
    auto prog = ProgramBuilder().mov_imm(R0, 2).exit().build();
    net::Packet pkt = udp64();
    const auto res = run(prog, pkt);
    EXPECT_EQ(res.action, XdpAction::Pass);
    EXPECT_EQ(res.insns, 2u);
    EXPECT_GT(res.cost, 0);
}

TEST(EbpfVm, AluArithmetic)
{
    ProgramBuilder b;
    b.mov_imm(R1, 10)
        .mov_imm(R2, 3)
        .mov_reg(R0, R1)
        .mul_imm(R0, 4)   // 40
        .add_reg(R0, R2)  // 43
        .sub_reg(R0, R2)  // 40
        .rsh_imm(R0, 2)   // 10
        .lsh_imm(R0, 1)   // 20
        .add_imm(R0, -18) // 2
        .exit();
    net::Packet pkt = udp64();
    const auto res = run(b.build(), pkt);
    EXPECT_EQ(res.ret, 2u);
}

TEST(EbpfVm, DivisionByZeroYieldsZero)
{
    auto prog = ProgramBuilder()
                    .mov_imm(R0, 100)
                    .mov_imm(R1, 0)
                    .emit({Op::DivReg, R0, R1, 0, 0})
                    .exit()
                    .build();
    net::Packet pkt = udp64();
    EXPECT_EQ(run(prog, pkt).ret, 0u);
}

TEST(EbpfVm, ByteSwaps)
{
    auto prog = ProgramBuilder().mov_imm(R0, 0x1234).be16(R0).exit().build();
    net::Packet pkt = udp64();
    EXPECT_EQ(run(prog, pkt).ret, 0x3412u);
}

TEST(EbpfVm, PacketLoadReadsWireBytes)
{
    // Load the EtherType (offset 12, 2 bytes) after a bounds check.
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R2)
        .add_imm(R4, 14)
        .jgt_reg(R4, R3, "out")
        .ldxh(R0, R2, 12)
        .exit()
        .label("out")
        .mov_imm(R0, 0)
        .exit();
    net::Packet pkt = udp64();
    const auto res = run(b.build(), pkt);
    EXPECT_EQ(res.ret, 0x0008u); // 0x0800 read little-endian
}

TEST(EbpfVm, PacketStoreModifiesPacket)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .stxb(R2, 0, R6) // overwrite first byte (low byte of an address; just a write test)
        .mov_imm(R0, 1)
        .exit();
    net::Packet pkt = udp64();
    pkt.data()[0] = 0x00;
    run(b.build(), pkt);
    // We can't predict the value, but the action must not be Aborted.
    EXPECT_EQ(run(b.build(), pkt).action, XdpAction::Drop);
}

TEST(EbpfVm, OutOfBoundsPacketAccessAborts)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxw(R0, R2, 10000) // way past data_end, no bounds check
        .exit();
    net::Packet pkt = udp64();
    const auto res = run(b.build(), pkt);
    EXPECT_EQ(res.action, XdpAction::Aborted);
    EXPECT_FALSE(res.fault.empty());
}

TEST(EbpfVm, StackReadWrite)
{
    ProgramBuilder b;
    b.mov_imm(R1, 0xabcd)
        .stxdw(R10, -8, R1)
        .ldxdw(R0, R10, -8)
        .exit();
    net::Packet pkt = udp64();
    EXPECT_EQ(run(b.build(), pkt).ret, 0xabcdu);
}

TEST(EbpfVm, StackOverflowAborts)
{
    ProgramBuilder b;
    b.mov_imm(R1, 1).stxdw(R10, -520, R1).mov_imm(R0, 2).exit();
    net::Packet pkt = udp64();
    EXPECT_EQ(run(b.build(), pkt).action, XdpAction::Aborted);
}

TEST(EbpfVm, CtxIsReadOnly)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1).mov_imm(R2, 0).stxdw(R6, 0, R2).mov_imm(R0, 2).exit();
    net::Packet pkt = udp64();
    EXPECT_EQ(run(b.build(), pkt).action, XdpAction::Aborted);
}

TEST(EbpfVm, MapLookupHitAndMiss)
{
    auto map = std::make_shared<Map>(MapType::Hash, "t", 4, 8, 16);
    const std::uint32_t key = 7;
    const std::uint64_t value = 0x1122334455667788ULL;
    ASSERT_TRUE(map->update_kv(key, value));

    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.stw(R10, -4, 7) // key on stack
        .load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .jne_imm(R0, 0, "hit")
        .mov_imm(R0, 0)
        .exit()
        .label("hit")
        .ldxdw(R0, R0, 0)
        .exit();
    auto prog = b.build();
    net::Packet pkt = udp64();
    auto res = run(prog, pkt);
    EXPECT_EQ(res.ret, value);
    EXPECT_EQ(res.map_lookups, 1u);

    // Miss path: change the stack key.
    ProgramBuilder b2;
    const int fd2 = b2.add_map(map);
    b2.stw(R10, -4, 999)
        .load_map_fd(R1, fd2)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .jne_imm(R0, 0, "hit")
        .mov_imm(R0, 42)
        .exit()
        .label("hit")
        .mov_imm(R0, 0)
        .exit();
    net::Packet pkt2 = udp64();
    EXPECT_EQ(run(b2.build(), pkt2).ret, 42u);
}

TEST(EbpfVm, MapValueIsWritable)
{
    auto map = std::make_shared<Map>(MapType::Array, "counters", 4, 8, 4);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.stw(R10, -4, 0)
        .load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .jne_imm(R0, 0, "hit")
        .mov_imm(R0, 0)
        .exit()
        .label("hit")
        .ldxdw(R1, R0, 0)
        .add_imm(R1, 1)
        .stxdw(R0, 0, R1)
        .mov_imm(R0, 2)
        .exit();
    auto prog = b.build();
    net::Packet pkt = udp64();
    run(prog, pkt);
    run(prog, pkt);
    run(prog, pkt);
    const std::uint32_t key = 0;
    EXPECT_EQ(map->lookup_kv<std::uint64_t>(key).value(), 3u);
}

TEST(EbpfVm, AdjustHeadGrowsPacket)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .mov_imm(R2, -16) // grow 16 bytes of headroom into the packet
        .call(HelperId::XdpAdjustHead)
        .mov_imm(R0, 2)
        .exit();
    net::Packet pkt = udp64();
    const auto before = pkt.size();
    run(b.build(), pkt);
    EXPECT_EQ(pkt.size(), before + 16);
}

TEST(EbpfVm, AdjustHeadShrinksPacket)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .mov_imm(R2, 14) // strip the Ethernet header
        .call(HelperId::XdpAdjustHead)
        .mov_imm(R0, 2)
        .exit();
    net::Packet pkt = udp64();
    const auto before = pkt.size();
    run(b.build(), pkt);
    EXPECT_EQ(pkt.size(), before - 14);
}

TEST(EbpfVm, RedirectMapHitAndFallback)
{
    auto xsk = std::make_shared<Map>(MapType::XskMap, "xsks", 4, 4, 8);
    const std::uint32_t q0 = 0;
    ASSERT_TRUE(xsk->update_kv(q0, std::uint32_t{1}));

    ProgramBuilder b;
    const int fd = b.add_map(xsk);
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 24)
        .load_map_fd(R1, fd)
        .mov_imm(R3, 2) // fallback: XDP_PASS
        .call(HelperId::RedirectMap)
        .exit();
    auto prog = b.build();

    net::Packet pkt = udp64();
    Vm vm;
    auto res = vm.run_xdp(prog, pkt, /*ifindex=*/1, /*rx_queue=*/0);
    EXPECT_EQ(res.action, XdpAction::Redirect);
    EXPECT_EQ(res.redirect_map, xsk.get());
    EXPECT_EQ(res.redirect_key, 0u);

    // Queue 5 has no socket -> fallback action.
    auto res2 = vm.run_xdp(prog, pkt, 1, /*rx_queue=*/5);
    EXPECT_EQ(res2.action, XdpAction::Pass);
}

TEST(EbpfVm, InstructionBudgetStopsRunawayPrograms)
{
    // An (unverifiable) infinite loop must be stopped by the runtime budget.
    ProgramBuilder b;
    b.mov_imm(R0, 1);
    Program prog = b.build();
    prog.insns.push_back({Op::Ja, 0, 0, -1, 0}); // self-loop
    net::Packet pkt = udp64();
    const auto res = run(prog, pkt);
    EXPECT_EQ(res.action, XdpAction::Aborted);
}

TEST(EbpfVm, BadRegisterFaultsInsteadOfCorruptingTheFrame)
{
    // Unverified: r40 does not exist. Decoding turns the instruction
    // into a trap, so the run faults before touching any register.
    auto prog = ProgramBuilder().mov_imm(40, 0x4141).mov_imm(R0, 2).exit().build();
    net::Packet pkt = udp64();
    const auto res = run(prog, pkt);
    EXPECT_EQ(res.action, XdpAction::Aborted);
    EXPECT_EQ(res.fault, "bad register");
    EXPECT_EQ(res.insns, 1u);
}

TEST(EbpfVm, OutOfRangeJumpAndFallingOffTheEndFault)
{
    Program jump = ProgramBuilder().mov_imm(R0, 2).exit().build();
    jump.insns.insert(jump.insns.begin(), Insn{Op::Ja, 0, 0, 100, 0});
    Program fall = ProgramBuilder().mov_imm(R0, 2).build();
    for (const Program* prog : {&jump, &fall}) {
        net::Packet pkt = udp64();
        const auto res = run(*prog, pkt);
        EXPECT_EQ(res.action, XdpAction::Aborted);
        EXPECT_EQ(res.fault, "pc out of bounds");
        EXPECT_EQ(res.insns, 1u); // the sentinel is not an instruction
    }
}

TEST(EbpfVm, LoadRecordsVerifierProvenAccessKinds)
{
    auto map = std::make_shared<Map>(MapType::Hash, "t", 4, 8, 16);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)          // 1: ctx
        .ldxdw(R3, R6, 8)          // 2: ctx
        .mov_reg(R4, R2)
        .add_imm(R4, 14)
        .jgt_reg(R4, R3, "out")    // 5
        .ldxh(R5, R2, 12)          // 6: packet
        .stxw(R10, -4, R5)         // 7: stack
        .load_map_fd(R1, fd)       // 8
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup) // 11: proven map, stack key
        .jeq_imm(R0, 0, "out")
        .ldxdw(R0, R0, 0)          // 13: map value
        .label("out")
        .mov_imm(R0, 2)            // 14
        .exit();
    const Program prog = b.build();
    const Image image = load(prog);
    ASSERT_TRUE(image.verified()) << image.verdict().error;
    const auto code = image.code();
    ASSERT_EQ(code.size(), prog.insns.size() + 1);
    EXPECT_EQ(code[1].mem, MemKind::Ctx);
    EXPECT_EQ(code[2].mem, MemKind::Ctx);
    EXPECT_EQ(code[5].target, 14u);
    EXPECT_EQ(code[6].mem, MemKind::Packet);
    EXPECT_EQ(code[7].mem, MemKind::Stack);
    EXPECT_EQ(code[8].map, map.get());
    EXPECT_EQ(code[11].map, map.get());
    EXPECT_EQ(code[11].mem, MemKind::Stack);
    EXPECT_EQ(code[13].mem, MemKind::MapValue);
    EXPECT_EQ(code.back().trap, Trap::FellOff);
    EXPECT_EQ(image.stack_depth(), 4); // the 4-byte key below fp

    // An unverified program proves nothing: every access is Unknown and
    // takes the full check, with the same result.
    Program loose = prog;
    loose.insns.push_back({Op::Ja, 0, 0, -1, 0}); // a back-edge
    const Image unverified = load(loose);
    EXPECT_FALSE(unverified.verified());
    EXPECT_EQ(unverified.stack_depth(), kStackSize);
    for (const DecodedInsn& d : unverified.code()) EXPECT_EQ(d.mem, MemKind::Unknown);
    net::Packet a = udp64(), b2 = udp64();
    Vm vm;
    const auto ra = vm.run_xdp(image, a);
    const auto rb = vm.run_xdp(unverified, b2);
    EXPECT_EQ(ra.action, rb.action);
    EXPECT_EQ(ra.insns, rb.insns);
    EXPECT_EQ(ra.cost, rb.cost);
    EXPECT_EQ(ra.touched_packet, rb.touched_packet);
}

TEST(EbpfVm, ProvenStackDepthIsZeroedOnEveryRun)
{
    // A run zeroes only the stack depth the verifier proved. The
    // verifier tracks initialisation per 8-byte slot, so it accepts a
    // 1-byte store followed by an 8-byte load of the same slot: the
    // other 7 bytes must read 0, not what an earlier run left there.
    Vm vm;
    net::Packet pkt = udp64();
    ProgramBuilder dirty;
    dirty.mov_imm(R1, -1).stxdw(R10, -8, R1).mov_imm(R0, 2).exit();
    const Image dirty_image = load(dirty.build());
    ProgramBuilder partial;
    partial.emit({Op::StB, R10, 0, -8, 0x5a}).ldxdw(R0, R10, -8).exit();
    const Image partial_image = load(partial.build());
    ASSERT_TRUE(dirty_image.verified());
    ASSERT_TRUE(partial_image.verified()) << partial_image.verdict().error;
    EXPECT_EQ(dirty_image.stack_depth(), 8);
    EXPECT_EQ(partial_image.stack_depth(), 8);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(vm.run_xdp(dirty_image, pkt).action, XdpAction::Pass);
        EXPECT_EQ(vm.run_xdp(partial_image, pkt).ret, 0x5au);
    }
}

TEST(EbpfVm, CostScalesWithInstructionCount)
{
    ProgramBuilder small;
    small.mov_imm(R0, 1).exit();
    ProgramBuilder big;
    for (int i = 0; i < 100; ++i) big.mov_imm(R1, i);
    big.mov_imm(R0, 1).exit();
    net::Packet p1 = udp64(), p2 = udp64();
    const auto rs = run(small.build(), p1);
    const auto rb = run(big.build(), p2);
    EXPECT_GT(rb.cost, rs.cost);
    EXPECT_EQ(rb.insns, rs.insns + 100);
}

} // namespace
} // namespace ovsx::ebpf

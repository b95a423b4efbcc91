#include <gtest/gtest.h>

#include "ebpf/programs.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "net/builder.h"

namespace ovsx::ebpf {
namespace {

TEST(Verifier, AcceptsTrivialPrograms)
{
    EXPECT_TRUE(verify(xdp_pass_all()));
    EXPECT_TRUE(verify(xdp_drop_all()));
}

TEST(Verifier, AcceptsAllCannedPrograms)
{
    auto l2 = std::make_shared<Map>(MapType::Hash, "l2", 8, 4, 128);
    auto xsk = std::make_shared<Map>(MapType::XskMap, "xsk", 4, 4, 16);
    auto dev = std::make_shared<Map>(MapType::DevMap, "dev", 4, 4, 16);
    auto ip = std::make_shared<Map>(MapType::Hash, "ip", 4, 4, 128);
    auto backends = std::make_shared<Map>(MapType::Array, "be", 4, 4, 8);

    for (const auto& [name, prog] : {
             std::pair{"parse_drop", xdp_parse_drop()},
             std::pair{"parse_lookup_drop", xdp_parse_lookup_drop(l2)},
             std::pair{"swap_macs_tx", xdp_swap_macs_tx()},
             std::pair{"redirect_to_xsk", xdp_redirect_to_xsk(xsk)},
             std::pair{"container_bypass", xdp_container_bypass(ip, dev, xsk)},
             std::pair{"l4_lb", xdp_l4_lb(80, backends, xsk)},
             std::pair{"steer_mgmt", xdp_steer_mgmt_to_stack(22, xsk)},
         }) {
        const auto res = verify(prog);
        EXPECT_TRUE(res.ok) << name << ": " << res.error;
    }
}

TEST(Verifier, RejectsEmptyProgram)
{
    Program p;
    EXPECT_FALSE(verify(p));
}

TEST(Verifier, RejectsOversizedProgram)
{
    ProgramBuilder b;
    for (int i = 0; i < kMaxInsns + 1; ++i) b.mov_imm(R0, 0);
    b.exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("too large"), std::string::npos);
}

TEST(Verifier, RejectsBackEdges)
{
    // A loop: the defining restriction that killed the eBPF datapath's
    // megaflow cache (§2.2.2).
    ProgramBuilder b;
    b.mov_imm(R0, 1);
    Program p = b.build();
    p.insns.push_back({Op::Ja, 0, 0, -2, 0});
    p.insns.push_back({Op::Exit, 0, 0, 0, 0});
    const auto res = verify(p);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("back-edge"), std::string::npos);
}

TEST(Verifier, RejectsJumpOutOfBounds)
{
    Program p;
    p.insns.push_back({Op::Ja, 0, 0, 100, 0});
    p.insns.push_back({Op::Exit, 0, 0, 0, 0});
    EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RejectsReadOfUninitializedRegister)
{
    ProgramBuilder b;
    b.mov_reg(R0, R5).exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("uninitialized"), std::string::npos);
}

TEST(Verifier, RejectsWriteToFramePointer)
{
    ProgramBuilder b;
    b.mov_imm(R10, 0).mov_imm(R0, 1).exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("r10"), std::string::npos);
}

TEST(Verifier, RejectsExitWithoutR0)
{
    ProgramBuilder b;
    b.exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsPacketAccessWithoutBoundsCheck)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0) // data
        .ldxb(R0, R2, 0)  // no proof that even 1 byte exists
        .exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("bounds"), std::string::npos);
}

TEST(Verifier, AcceptsPacketAccessAfterBoundsCheck)
{
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
        .mov_imm(R0, 1)
        .exit();
    const auto res = verify(b.build());
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(Verifier, BoundsProofDoesNotLeakToTakenBranch)
{
    // On the *taken* branch of `if (p+14 > end) goto`, no bytes are proven.
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R2)
        .add_imm(R4, 14)
        .jgt_reg(R4, R3, "short")
        .mov_imm(R0, 1)
        .exit()
        .label("short")
        .ldxb(R0, R2, 0) // illegal: packet may be empty here
        .exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsAccessBeyondProvenBounds)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R2)
        .add_imm(R4, 14)
        .jgt_reg(R4, R3, "out")
        .ldxw(R0, R2, 12) // needs bytes 12..16 but only 14 proven
        .exit()
        .label("out")
        .mov_imm(R0, 1)
        .exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsMapValueDerefWithoutNullCheck)
{
    auto map = std::make_shared<Map>(MapType::Hash, "m", 4, 8, 8);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.stw(R10, -4, 1)
        .load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .ldxdw(R0, R0, 0) // missing null check
        .exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("null"), std::string::npos);
}

TEST(Verifier, AcceptsMapValueDerefAfterNullCheck)
{
    auto map = std::make_shared<Map>(MapType::Hash, "m", 4, 8, 8);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.stw(R10, -4, 1)
        .load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .jeq_imm(R0, 0, "miss")
        .ldxdw(R0, R0, 0)
        .exit()
        .label("miss")
        .mov_imm(R0, 0)
        .exit();
    const auto res = verify(b.build());
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(Verifier, RejectsMapValueAccessOutOfBounds)
{
    auto map = std::make_shared<Map>(MapType::Hash, "m", 4, 8, 8);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.stw(R10, -4, 1)
        .load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -4)
        .call(HelperId::MapLookup)
        .jeq_imm(R0, 0, "miss")
        .ldxdw(R0, R0, 8) // value is 8 bytes; offset 8 reads past it
        .exit()
        .label("miss")
        .mov_imm(R0, 0)
        .exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsUninitializedStackRead)
{
    ProgramBuilder b;
    b.ldxdw(R0, R10, -8).exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("stack"), std::string::npos);
}

TEST(Verifier, RejectsMapLookupWithNonStackKey)
{
    auto map = std::make_shared<Map>(MapType::Hash, "m", 4, 8, 8);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.load_map_fd(R1, fd)
        .mov_imm(R2, 0x1000) // scalar, not a stack pointer
        .call(HelperId::MapLookup)
        .mov_imm(R0, 0)
        .exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsRedirectOnNonRedirectMap)
{
    auto map = std::make_shared<Map>(MapType::Hash, "m", 4, 4, 8);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.load_map_fd(R1, fd).mov_imm(R2, 0).mov_imm(R3, 0).call(HelperId::RedirectMap).exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("devmap"), std::string::npos);
}

TEST(Verifier, CallsClobberCallerSavedRegisters)
{
    // r2 must be unreadable after a call.
    auto xsk = std::make_shared<Map>(MapType::XskMap, "x", 4, 4, 4);
    ProgramBuilder b;
    const int fd = b.add_map(xsk);
    b.load_map_fd(R1, fd)
        .mov_imm(R2, 0)
        .mov_imm(R3, 0)
        .call(HelperId::RedirectMap)
        .mov_reg(R0, R2) // r2 was clobbered
        .exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("uninitialized"), std::string::npos);
}

TEST(Verifier, AdjustHeadInvalidatesPacketPointers)
{
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R7, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R7)
        .add_imm(R4, 14)
        .jgt_reg(R4, R3, "out")
        .mov_reg(R1, R6)
        .mov_imm(R2, -16)
        .call(HelperId::XdpAdjustHead)
        .ldxb(R0, R7, 0) // stale packet pointer
        .exit()
        .label("out")
        .mov_imm(R0, 1)
        .exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsFallOffEnd)
{
    ProgramBuilder b;
    b.mov_imm(R0, 1); // no exit
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, RejectsUnknownMapFd)
{
    ProgramBuilder b;
    b.load_map_fd(R1, 3).mov_imm(R0, 0).exit();
    EXPECT_FALSE(verify(b.build()).ok);
}

TEST(Verifier, MergesStatesAtJoinPoints)
{
    // Two paths assign different types to r5; reading it after the join
    // must be rejected, but r0 set on both paths is fine.
    ProgramBuilder b;
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .mov_imm(R4, 1)
        .jeq_imm(R4, 1, "a")
        .mov_reg(R5, R2) // r5 = packet pointer
        .mov_imm(R0, 1)
        .ja("join")
        .label("a")
        .mov_imm(R5, 7) // r5 = scalar
        .mov_imm(R0, 2)
        .label("join")
        .mov_reg(R0, R5) // incompatible merge -> unreadable
        .exit();
    const auto res = verify(b.build());
    EXPECT_FALSE(res.ok);
}

TEST(Verifier, RejectsHelperBufferBelowTheStack)
{
    // The key pointer is 1000 bytes below fp: rejected by the bounds
    // check, which runs before the per-slot initialisation check (that
    // check indexes slots from the offset and must only see in-bounds
    // ones).
    auto map = std::make_shared<Map>(MapType::Hash, "h", 8, 4, 16);
    ProgramBuilder b;
    const int fd = b.add_map(map);
    b.load_map_fd(R1, fd)
        .mov_reg(R2, R10)
        .add_imm(R2, -1000)
        .call(HelperId::MapLookup)
        .mov_imm(R0, 2)
        .exit();
    VerifyResult res;
    ASSERT_NO_THROW(res = verify(b.build()));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("helper buffer out of stack bounds"), std::string::npos) << res.error;
}

TEST(Verifier, SeededOverProofIsCaughtByTheRuntimeCheck)
{
    // A verifier bug, seeded through the test seam: the packet-bounds
    // refinement proves 8 bytes more than the comparison does. The
    // program proves the whole packet, then reads 4 bytes past it.
    net::UdpSpec spec;
    net::Packet pkt = net::build_udp(spec);
    const auto len = static_cast<std::int16_t>(pkt.size());
    ProgramBuilder b("overread");
    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R2)
        .add_imm(R4, len)
        .jgt_reg(R4, R3, "out")
        .ldxw(R0, R2, len) // [len, len + 4): past data_end
        .label("out")
        .mov_imm(R0, 2)
        .exit();
    const Program prog = b.build();
    EXPECT_FALSE(verify(prog).ok); // the sound verifier rejects it

    set_test_overprove_packet_bounds(8);
    const Image image = load(prog);
    set_test_overprove_packet_bounds(0);
    ASSERT_TRUE(image.verified()) << image.verdict().error;
    ASSERT_EQ(image.code()[6].mem, MemKind::Packet);

    // The access is tagged "packet" but misses the packet region, so it
    // falls through to the full check, which faults. Packets carry
    // tailroom, so an unchecked read would not even crash.
    Vm vm;
    const auto res = vm.run_xdp(image, pkt);
    EXPECT_EQ(res.action, XdpAction::Aborted);
    EXPECT_EQ(res.fault, "out-of-bounds memory access");
}

} // namespace
} // namespace ovsx::ebpf

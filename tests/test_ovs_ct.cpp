#include <gtest/gtest.h>

#include "gen/ct_corpus.h"
#include "net/builder.h"
#include "net/headers.h"
#include "ovs/ct.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

class UserCtTest : public ::testing::Test {
protected:
    net::Packet tcp(std::uint32_t src, std::uint32_t dst, std::uint16_t sport,
                    std::uint16_t dport, std::uint8_t flags = net::kTcpAck)
    {
        net::TcpSpec spec;
        spec.src_ip = src;
        spec.dst_ip = dst;
        spec.src_port = sport;
        spec.dst_port = dport;
        spec.flags = flags;
        spec.payload_len = 16;
        return net::build_tcp(spec);
    }

    std::uint8_t run(net::Packet& pkt, const kern::CtSpec& spec)
    {
        const auto key = net::parse_flow(pkt);
        return ct.process(pkt, key, spec, ctx);
    }

    UserspaceConntrack ct;
    sim::ExecContext ctx{"pmd", sim::CpuClass::User};
};

TEST_F(UserCtTest, BasicStateMachine)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    EXPECT_TRUE(run(p1, commit) & net::kCtStateNew);

    kern::CtSpec check{.zone = 0, .commit = false};
    auto p2 = tcp(ipv4(2, 2, 2, 2), ipv4(1, 1, 1, 1), 80, 1000, net::kTcpSyn | net::kTcpAck);
    const auto s2 = run(p2, check);
    EXPECT_TRUE(s2 & net::kCtStateEstablished);
    EXPECT_TRUE(s2 & net::kCtStateReply);
    EXPECT_EQ(ct.size(), 1u);
}

TEST_F(UserCtTest, SnatRewritesAndUnNats)
{
    // SNAT 1.1.1.1 -> 5.5.5.5 on commit.
    kern::CtSpec nat;
    nat.zone = 1;
    nat.commit = true;
    nat.nat = kern::NatSpec::src(ipv4(5, 5, 5, 5));

    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, nat);
    // Outbound packet leaves with the translated source.
    EXPECT_EQ(net::parse_flow(p1).nw_src, ipv4(5, 5, 5, 5));
    EXPECT_TRUE(net::verify_l4_csum(p1, 14));

    // Reply arrives addressed to the NAT IP; conntrack restores it.
    kern::CtSpec check{.zone = 1, .commit = false};
    auto p2 = tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 1000, net::kTcpSyn | net::kTcpAck);
    const auto s = run(p2, check);
    EXPECT_TRUE(s & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(p2).nw_dst, ipv4(1, 1, 1, 1)); // de-NATed
    EXPECT_TRUE(net::verify_l4_csum(p2, 14));
}

TEST_F(UserCtTest, DnatRewritesDestination)
{
    kern::CtSpec nat;
    nat.zone = 2;
    nat.commit = true;
    nat.nat = kern::NatSpec::dst(ipv4(10, 9, 9, 9), 8080);

    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, nat);
    const auto k1 = net::parse_flow(p1);
    EXPECT_EQ(k1.nw_dst, ipv4(10, 9, 9, 9));
    EXPECT_EQ(k1.tp_dst, 8080);

    // Reply from the real backend gets mapped back to the VIP.
    kern::CtSpec check{.zone = 2, .commit = false};
    auto p2 = tcp(ipv4(10, 9, 9, 9), ipv4(1, 1, 1, 1), 8080, 1000, net::kTcpAck);
    const auto s = run(p2, check);
    EXPECT_TRUE(s & net::kCtStateReply);
    const auto k2 = net::parse_flow(p2);
    EXPECT_EQ(k2.nw_src, ipv4(2, 2, 2, 2));
    EXPECT_EQ(k2.tp_src, 80);
}

TEST_F(UserCtTest, ZoneLimits)
{
    ct.set_zone_limit(9, 1);
    kern::CtSpec commit{.zone = 9, .commit = true};
    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    EXPECT_FALSE(run(p1, commit) & net::kCtStateInvalid);
    auto p2 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1001, 80, net::kTcpSyn);
    EXPECT_TRUE(run(p2, commit) & net::kCtStateInvalid);
}

TEST_F(UserCtTest, MarkPersists)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, commit);
    const auto tuple = CtTuple::from_key(net::parse_flow(p1), 0);
    EXPECT_TRUE(ct.set_mark(tuple, 77));

    kern::CtSpec check{.zone = 0, .commit = false};
    auto p2 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    run(p2, check);
    EXPECT_EQ(p2.meta().ct_mark, 77u);
}

TEST_F(UserCtTest, ExpiryAndFlush)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    for (std::uint16_t i = 0; i < 5; ++i) {
        auto p = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), static_cast<std::uint16_t>(1000 + i),
                     80, net::kTcpSyn);
        const auto key = net::parse_flow(p);
        ct.process(p, key, commit, ctx, /*now=*/i * sim::kSecond);
    }
    EXPECT_EQ(ct.size(), 5u);
    EXPECT_EQ(ct.expire_idle(2 * sim::kSecond), 2u);
    EXPECT_EQ(ct.size(), 3u);
    ct.flush();
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.zone_count(0), 0u);
}

TEST_F(UserCtTest, TcpFlagsAccumulate)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, commit);
    auto p2 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpFin);
    run(p2, kern::CtSpec{.zone = 0, .commit = false});
    const auto* e = ct.find(CtTuple::from_key(net::parse_flow(p1), 0));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->tcp_flags_seen & net::kTcpSyn);
    EXPECT_TRUE(e->tcp_flags_seen & net::kTcpFin);
}

TEST_F(UserCtTest, RstMidHandshakeTearsDownEntry)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto seq = gen::ct_rst_mid_handshake();
    EXPECT_TRUE(run(seq[0], commit) & net::kCtStateNew);
    EXPECT_EQ(ct.size(), 1u);

    const auto s_rst = run(seq[1], kern::CtSpec{.zone = 0, .commit = false});
    EXPECT_TRUE(s_rst & net::kCtStateReply);
    EXPECT_EQ(ct.size(), 0u);

    const auto s_syn = run(seq[2], commit);
    EXPECT_TRUE(s_syn & net::kCtStateNew);
    EXPECT_FALSE(s_syn & net::kCtStateEstablished);
    EXPECT_EQ(ct.size(), 1u);
}

TEST_F(UserCtTest, RstOnUnknownTupleIsInvalid)
{
    auto p = tcp(ipv4(9, 9, 9, 9), ipv4(8, 8, 8, 8), 5555, 80, net::kTcpRst);
    EXPECT_TRUE(run(p, kern::CtSpec{.zone = 0, .commit = false}) & net::kCtStateInvalid);
    EXPECT_EQ(ct.size(), 0u);
}

TEST_F(UserCtTest, IcmpErrorRelatedToTrackedConnection)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto seq = gen::ct_icmp_related();
    run(seq[0], commit);

    const auto s = run(seq[1], kern::CtSpec{.zone = 0, .commit = false});
    EXPECT_TRUE(s & net::kCtStateRelated);
    EXPECT_FALSE(s & net::kCtStateNew);
    EXPECT_FALSE(s & net::kCtStateInvalid);

    const gen::CtCorpusTuple t;
    const auto* e = ct.find(CtTuple{t.client_ip, t.server_ip, t.client_port, t.server_port, 17, 0});
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->packets, 1u); // the error did not count as conn traffic
}

TEST_F(UserCtTest, IcmpErrorCitingUnknownTupleIsInvalid)
{
    auto p = gen::ct_icmp_unrelated();
    EXPECT_TRUE(run(p, kern::CtSpec{.zone = 0, .commit = false}) & net::kCtStateInvalid);
}

TEST_F(UserCtTest, ExpiryUnderVirtualTime)
{
    kern::CtSpec commit{.zone = 0, .commit = true};
    auto p1 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), commit, ctx, 1'000'000);
    auto p2 = tcp(ipv4(3, 3, 3, 3), ipv4(4, 4, 4, 4), 1001, 80, net::kTcpSyn);
    ct.process(p2, net::parse_flow(p2), commit, ctx, 10'000'000);
    EXPECT_EQ(ct.size(), 2u);

    EXPECT_EQ(ct.expire_idle(5'000'000), 1u);
    EXPECT_EQ(ct.size(), 1u);
    EXPECT_EQ(ct.zone_count(0), 1u);
    EXPECT_EQ(ct.expire_idle(20'000'000), 1u);
    EXPECT_TRUE(ct.snapshot().empty());
}

// The userspace and kernel trackers must leave identical state behind for
// the same packet sequence — the invariant the differential harness's
// end-state diff depends on.
TEST_F(UserCtTest, SnapshotMatchesKernelTrackerOnCorpusSequences)
{
    kern::Conntrack kct;
    kern::CtSpec commit{.zone = 0, .commit = true};

    std::vector<net::Packet> seq;
    for (auto& p : gen::ct_handshake()) seq.push_back(std::move(p));
    for (auto& p : gen::ct_rst_mid_handshake()) seq.push_back(std::move(p));
    for (auto& p : gen::ct_icmp_related()) seq.push_back(std::move(p));
    seq.push_back(gen::ct_icmp_unrelated());

    for (auto& p : seq) {
        net::Packet copy = p;
        const auto key = net::parse_flow(p);
        ct.process(p, key, commit, ctx);
        kct.process(copy, net::parse_flow(copy), 0, true, ctx);
    }
    EXPECT_EQ(ct.snapshot(), kct.snapshot());
    EXPECT_FALSE(ct.snapshot().empty());
}

// Same invariant under NAT: identical SNAT specs (with a port range and
// a mark) must leave byte-identical packets and identical snapshots —
// NAT reply tuples, marks and allocation order included.
TEST_F(UserCtTest, NatSnapshotAndBytesMatchKernelTracker)
{
    kern::Conntrack kct;
    kern::CtSpec nat;
    nat.zone = 0;
    nat.commit = true;
    nat.set_mark = true;
    nat.mark = 9;
    nat.nat = kern::NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40001);
    kern::CtSpec check{.zone = 0, .commit = false};

    auto run_both = [&](net::Packet& p, const kern::CtSpec& spec) {
        net::Packet copy = p;
        const auto s_u = ct.process(p, net::parse_flow(p), spec, ctx);
        const auto r_k = kct.process(copy, net::parse_flow(copy), spec, ctx);
        EXPECT_EQ(s_u, r_k.state);
        EXPECT_EQ(std::vector<std::uint8_t>(p.data(), p.data() + p.size()),
                  std::vector<std::uint8_t>(copy.data(), copy.data() + copy.size()));
        return s_u;
    };

    // Two clients behind the same SNAT ip: the second allocates the next
    // port; the third exhausts the two-port range and must be invalid in
    // BOTH trackers.
    for (std::uint16_t sp : {1000, 1001}) {
        auto p = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), sp, 80, net::kTcpSyn);
        EXPECT_TRUE(run_both(p, nat) & net::kCtStateNew);
        EXPECT_EQ(net::parse_flow(p).nw_src, ipv4(5, 5, 5, 5));
    }
    auto p3 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1002, 80, net::kTcpSyn);
    EXPECT_TRUE(run_both(p3, nat) & net::kCtStateInvalid);
    EXPECT_EQ(ct.zone_count(0), kct.zone_count(0));

    // Replies to each allocated port de-NAT back to the right client.
    auto r1 = tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40000, net::kTcpSyn | net::kTcpAck);
    EXPECT_TRUE(run_both(r1, check) & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(r1).nw_dst, ipv4(1, 1, 1, 1));
    EXPECT_EQ(net::parse_flow(r1).tp_dst, 1000);
    EXPECT_EQ(r1.meta().ct_mark, 9u);
    auto r2 = tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40001, net::kTcpSyn | net::kTcpAck);
    EXPECT_TRUE(run_both(r2, check) & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(r2).tp_dst, 1001);

    const auto snap_u = ct.snapshot();
    EXPECT_EQ(snap_u, kct.snapshot());
    ASSERT_EQ(snap_u.size(), 2u);
    EXPECT_TRUE(snap_u[0].nat);
    EXPECT_EQ(snap_u[0].mark, 9u);
    EXPECT_EQ(snap_u[0].reply.dport, 40000);
    EXPECT_EQ(snap_u[1].reply.dport, 40001);
}

} // namespace
} // namespace ovsx::ovs

// Differential conformance: the three datapaths (dpif-netdev on AF_XDP,
// the kernel module, the eBPF prototype) must agree packet-for-packet on
// the same topology and ruleset, modulo an explicit allowlist of
// structural limitations. Divergences found (and fixed) by this harness
// are pinned here as regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "gen/ct_corpus.h"
#include "gen/differential.h"
#include "gen/fuzz.h"
#include "kern/meter.h"
#include "net/builder.h"
#include "net/headers.h"
#include "net/tunnel.h"

namespace ovsx::gen {
namespace {

// The complete allowlist of intentional cross-datapath differences,
// taken from the harness itself so tests and budget cannot drift. A
// divergence explained by anything else (or nothing) is a conformance
// bug. "ct-nat" is retired: NAT now exists in both conntracks and is
// diffed, never allowlisted.
const std::set<std::string>& allowlist()
{
    static const std::set<std::string> tags(known_divergence_tags().begin(),
                                            known_divergence_tags().end());
    return tags;
}

void expect_explained_allowlisted(const DiffReport& report)
{
    for (const auto& d : report.explained) {
        EXPECT_TRUE(allowlist().contains(d.explanation))
            << "unknown explanation tag: " << d.explanation << " at step " << d.step;
    }
}

DiffRule rule(int priority, kern::OdpActions actions)
{
    DiffRule r;
    r.priority = priority;
    r.mask.bits.recirc_id = 0xffffffff; // first-pass rule
    r.actions = std::move(actions);
    return r;
}

net::Packet udp(std::uint16_t sport, std::uint16_t dport, std::uint16_t vlan_tci = 0)
{
    net::UdpSpec s;
    s.src_mac = net::MacAddr::from_id(1);
    s.dst_mac = net::MacAddr::from_id(2);
    s.src_ip = 0x0a000001;
    s.dst_ip = 0x0a000002;
    s.src_port = sport;
    s.dst_port = dport;
    s.vlan_tci = vlan_tci;
    return net::build_udp(s);
}

// ---- tentpole: seeded fuzz through all three datapaths -----------------

TEST(DifferentialFuzz, TenThousandPacketsZeroUnexplainedDivergences)
{
    FuzzConfig cfg; // all traffic classes on: ct, vlan, geneve, icmp, malformed
    const DiffReport report = fuzz_run(/*seed=*/0xA5F00D, cfg, 10000);
    EXPECT_EQ(report.packets_run, 10000u);
    EXPECT_TRUE(report.ok()) << report.summary();
    expect_explained_allowlisted(report);
}

TEST(DifferentialFuzz, SecondSeedAlsoClean)
{
    FuzzConfig cfg;
    cfg.use_meters = true;
    const DiffReport report = fuzz_run(/*seed=*/0xBEE5, cfg, 2000);
    EXPECT_TRUE(report.ok()) << report.summary();
    expect_explained_allowlisted(report);
}

// Seed 12345 found refresh_ipv4_csum summing a corrupt-IHL header past
// the frame end: the tailroom bytes it read differ between the umem-rx
// path (netdev) and direct injection (kernel), so the refreshed IP
// checksum diverged on malformed frames hitting a header-rewrite rule.
TEST(DifferentialFuzz, RegressionSeed12345MalformedIpChecksum)
{
    FuzzConfig cfg;
    const DiffReport report = fuzz_run(/*seed=*/12345, cfg, 2000);
    EXPECT_TRUE(report.ok()) << report.summary();
    expect_explained_allowlisted(report);
}

TEST(DifferentialFuzz, DeterministicAcrossRuns)
{
    FuzzConfig cfg;
    const DiffReport a = fuzz_run(7, cfg, 500);
    const DiffReport b = fuzz_run(7, cfg, 500);
    EXPECT_EQ(a.unexplained.size(), b.unexplained.size());
    EXPECT_EQ(a.explained.size(), b.explained.size());
}

// ---- fault injection: the harness must catch a mistranslated action ----

TEST(DifferentialFault, FlippedRewriteCaughtWithTinyReproducer)
{
    DiffRuleset rs;
    {
        net::FlowKey v;
        net::FlowMask m;
        v.nw_ttl = 7;
        m.bits.nw_ttl = 0xff;
        DiffRule r = rule(10, {kern::OdpAction::set_field(v, m), kern::OdpAction::output(2)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        rs.rules.push_back(std::move(r));
    }

    DiffOptions opts;
    opts.seed = 42;
    DifferentialHarness harness(rs, opts);
    // The kernel translation writes the wrong TTL — a one-line action
    // encoding bug of the kind differential testing exists to catch.
    harness.set_fault(DpKind::Kernel, [](std::vector<kern::OdpAction>& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::SetField) a.set_value.nw_ttl = 9;
        }
    });

    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 40; ++i) {
        seq.push_back({i % 4u, udp(static_cast<std::uint16_t>(1000 + i), 80)});
    }
    const DiffReport report = harness.run(seq);
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(report.reproducer.has_value());
    EXPECT_LE(report.reproducer->steps.size(), 5u);
    EXPECT_EQ(report.reproducer->seed, 42u);
}

// The end-state check digests each flow's canonical action bytes, so a
// kernel flow that differs from netdev's only in a set_field value is a
// flow-table divergence naming both values. Here a later rewrite of the
// same field keeps the difference off the wire, so nothing else sees it.
TEST(DifferentialFault, SetFieldValueDifferenceIsAFlowTableDivergence)
{
    net::FlowKey ttl9, ttl5;
    ttl9.nw_ttl = 9;
    ttl5.nw_ttl = 5;
    net::FlowMask ttl;
    ttl.bits.nw_ttl = 0xff;
    DiffRuleset rs;
    DiffRule r = rule(10, {kern::OdpAction::set_field(ttl9, ttl),
                           kern::OdpAction::set_field(ttl5, ttl), kern::OdpAction::output(2)});
    r.mask.bits.nw_proto = 0xff;
    r.match.nw_proto = 17;
    rs.rules.push_back(std::move(r));

    DiffOptions opts;
    opts.minimize = false; // end-state divergences have no packet step
    DifferentialHarness harness(rs, opts);
    harness.set_fault(DpKind::Kernel, [](std::vector<kern::OdpAction>& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::SetField) {
                a.set_value.nw_ttl = 7; // the first rewrite only
                break;
            }
        }
    });

    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80)});
    seq.push_back({1, udp(1001, 80)});
    const DiffReport report = harness.run(seq);
    ASSERT_EQ(report.unexplained.size(), 1u) << report.summary();
    const Divergence& d = report.unexplained[0];
    EXPECT_EQ(d.step, seq.size());
    EXPECT_NE(d.detail.find("flow tables differ"), std::string::npos) << d.detail;
    EXPECT_NE(d.detail.find("set(nw_ttl=9),set(nw_ttl=5),output(2)"), std::string::npos)
        << d.detail;
    EXPECT_NE(d.detail.find("set(nw_ttl=7),set(nw_ttl=5),output(2)"), std::string::npos)
        << d.detail;
}

TEST(DifferentialFault, FlippedOutputPortInEbpfCaught)
{
    DiffRuleset rs;
    DiffRule r = rule(10, {kern::OdpAction::output(2)});
    r.mask.bits.nw_proto = 0xff;
    r.match.nw_proto = 17;
    rs.rules.push_back(std::move(r));

    DifferentialHarness harness(rs);
    harness.set_fault(DpKind::Ebpf, [](std::vector<kern::OdpAction>& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::Output) a.port = 3;
        }
    });

    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80)});
    seq.push_back({0, udp(1000, 80)});
    const DiffReport report = harness.run(seq);
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(report.reproducer.has_value());
    EXPECT_LE(report.reproducer->steps.size(), 5u);
}

// Only the rules a packet reaches can explain its divergence: an eBPF
// fault on a plain output rule must surface although the ruleset also
// holds a Meter rule, which eBPF cannot express, that no packet reaches.
TEST(DifferentialFault, UnreachedMeterRuleDoesNotExplainAnEbpfFault)
{
    DiffRuleset rs;
    DiffRule plain = rule(10, {kern::OdpAction::output(2)});
    plain.mask.bits.nw_proto = 0xff;
    plain.match.nw_proto = 17;
    rs.rules.push_back(std::move(plain));
    DiffRule metered = rule(20, {kern::OdpAction::meter(1), kern::OdpAction::output(2)});
    metered.mask.bits.tp_dst = 0xffff;
    metered.match.tp_dst = 9999;
    rs.rules.push_back(std::move(metered));

    DifferentialHarness harness(rs);
    harness.set_fault(DpKind::Ebpf, [](std::vector<kern::OdpAction>& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::Output) a.port = 3;
        }
    });

    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80)});
    seq.push_back({0, udp(1000, 80)});
    const DiffReport report = harness.run(seq);
    EXPECT_EQ(report.unexplained.size(), 2u) << report.summary();
    EXPECT_TRUE(report.explained.empty()) << report.summary();
}

// ---- pinned regressions from divergences this harness surfaced ---------

// The eBPF program used to accept any IPv4 frame and read the L4 ports at
// a fixed offset; IP options shifted real ports out of view and aliased
// option bytes (0x01 NOPs -> port 257) into the lookup key, so an
// options-bearing frame could hit another flow's map entry. IHL != 5 must
// take the slow path.
TEST(DifferentialRegression, IpOptionsFrameDoesNotAliasEbpfFlow)
{
    DiffRuleset rs;
    {
        DiffRule r = rule(20, {kern::OdpAction::output(2)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        r.mask.bits.tp_src = 0xffff;
        r.match.tp_src = 257;
        r.mask.bits.tp_dst = 0xffff;
        r.match.tp_dst = 257;
        rs.rules.push_back(std::move(r));
    }
    {
        DiffRule r = rule(10, {kern::OdpAction::output(3)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        rs.rules.push_back(std::move(r));
    }

    std::vector<DiffPacket> seq;
    // Installs the (proto 17, 257 -> 257) exact entry in the eBPF map.
    seq.push_back({0, udp(257, 257)});
    // IHL=7 frame whose NOP option bytes sit where the eBPF key loader
    // reads ports: pre-fix this hit the entry above and went out port 2.
    net::Packet opts_frame = net::with_ip_options(udp(1000, 2000), 8);
    ASSERT_GT(opts_frame.size(), 0u);
    seq.push_back({0, std::move(opts_frame)});

    DifferentialHarness harness(rs);
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// The kernel module used to treat Meter actions as a no-op while
// dpif-netdev policed, so rate-limited flows diverged. Both now share
// kern::MeterTable and must drop the same packets at the same virtual
// times.
TEST(DifferentialRegression, MeterDropsAgreeBetweenNetdevAndKernel)
{
    kern::MeterConfig mc;
    mc.rate_pps = 100;
    mc.burst = 1;

    // Sanity: this config actually polices at the harness's 1ms cadence —
    // otherwise the parity assertion below would be vacuous.
    {
        kern::MeterTable probe;
        probe.set(1, mc);
        std::size_t admitted = 0;
        for (int t = 1; t <= 20; ++t) {
            if (probe.admit(1, 64, static_cast<sim::Nanos>(t) * 1'000'000)) ++admitted;
        }
        ASSERT_GT(admitted, 0u);
        ASSERT_LT(admitted, 20u);
    }

    DiffRuleset rs;
    rs.meters.emplace_back(1, mc);
    rs.rules.push_back(rule(10, {kern::OdpAction::meter(1), kern::OdpAction::output(2)}));

    DiffOptions opts;
    opts.compare_ebpf = false; // meters are structurally eBPF-unsupported
    DifferentialHarness harness(rs, opts);

    std::vector<DiffPacket> seq;
    for (int i = 0; i < 20; ++i) seq.push_back({0, udp(1000, 80)});
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// The kernel module used to run a userspace() action as a miss upcall,
// whose handler translated and executed the flow again, once per level
// down to the recursion limit: nine copies of one packet on the wire.
// Every provider now outputs once, and the punt needs no explanation.
TEST(DifferentialRegression, UserspaceActionAgreesOnEveryProvider)
{
    DiffRuleset rs;
    rs.rules.push_back(rule(10, {kern::OdpAction::output(2), kern::OdpAction::userspace()}));

    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 4; ++i) {
        seq.push_back({0, udp(static_cast<std::uint16_t>(1000 + i % 2), 80)});
    }
    DifferentialHarness harness(rs);
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.unexplained.empty()) << report.summary();
    EXPECT_TRUE(report.explained.empty()) << report.summary();
}

// Conntrack edge cases must classify identically in the userspace and
// kernel trackers, and leave identical tables behind (the end-state diff
// covers that part).
TEST(DifferentialRegression, ConntrackSequencesAgreeAcrossDatapaths)
{
    DiffRuleset rs;
    {
        kern::CtSpec spec;
        spec.zone = 0;
        spec.commit = true;
        rs.rules.push_back(
            rule(50, {kern::OdpAction::conntrack(spec), kern::OdpAction::recirc(0x100)}));
    }
    auto pass2 = [](std::uint8_t state_bit, kern::OdpActions actions) {
        DiffRule r;
        r.priority = 20;
        r.mask.bits.recirc_id = 0xffffffff;
        r.match.recirc_id = 0x100;
        r.mask.bits.ct_state = state_bit;
        r.match.ct_state = state_bit;
        r.actions = std::move(actions);
        return r;
    };
    rs.rules.push_back(pass2(net::kCtStateNew, {kern::OdpAction::output(2)}));
    rs.rules.push_back(pass2(net::kCtStateEstablished, {kern::OdpAction::output(3)}));
    {
        DiffRule r;
        r.priority = 10;
        r.mask.bits.recirc_id = 0xffffffff;
        r.match.recirc_id = 0x100;
        r.actions = {kern::OdpAction::drop()};
        rs.rules.push_back(std::move(r));
    }

    std::vector<DiffPacket> seq;
    auto feed = [&](std::vector<net::Packet> pkts) {
        for (auto& p : pkts) seq.push_back({0, std::move(p)});
    };
    feed(ct_handshake());
    feed(ct_rst_mid_handshake());
    feed(ct_icmp_related());
    seq.push_back({0, ct_icmp_unrelated()});

    DifferentialHarness harness(rs);
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
    expect_explained_allowlisted(report);
}

// The retirement test for the "ct-nat" allowlist tag: a ruleset doing
// both SNAT and DNAT (no recirc, so it is eBPF-expressible) must run
// through all three datapaths with ZERO divergences of either kind —
// identical translated frames on the wire, identical de-NATed replies,
// and identical conntrack end state (the per-entry diff covers the NAT
// reply tuples and the deterministically allocated ports).
TEST(DifferentialRegression, SnatDnatRulesetAgreesAcrossAllThreeDatapaths)
{
    DiffRuleset rs;
    {
        // Outbound web traffic is source-NATed behind 10.0.9.1 with a
        // port range, forcing the allocator to run on every connection.
        kern::CtSpec spec;
        spec.commit = true;
        spec.nat = kern::NatSpec::src(0x0a000901, 40000, 40003);
        DiffRule r = rule(50, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(1)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        r.mask.bits.tp_dst = 0xffff;
        r.match.tp_dst = 80;
        rs.rules.push_back(std::move(r));
    }
    {
        // Inbound DNAT to a backend on another zone.
        kern::CtSpec spec;
        spec.zone = 7;
        spec.commit = true;
        spec.set_mark = true;
        spec.mark = 3;
        spec.nat = kern::NatSpec::dst(0x0a000402, 8080);
        DiffRule r = rule(40, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(2)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        r.mask.bits.tp_dst = 0xffff;
        r.match.tp_dst = 443;
        rs.rules.push_back(std::move(r));
    }
    {
        // Replies: plain ct (no nat spec needed — the tracker de-NATs
        // reply-direction packets from the stored binding).
        kern::CtSpec spec;
        DiffRule r = rule(30, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(3)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        rs.rules.push_back(std::move(r));
    }

    std::vector<DiffPacket> seq;
    // Four SNAT connections exercise ports 40000..40003; a fifth
    // exhausts the range on every datapath identically.
    for (std::uint16_t i = 0; i < 5; ++i) {
        seq.push_back({0, udp(static_cast<std::uint16_t>(5000 + i), 80)});
    }
    // A reply to the first translated connection must de-NAT the same
    // way everywhere (dst = the NAT ip and first allocated port).
    {
        net::UdpSpec s;
        s.src_mac = net::MacAddr::from_id(2);
        s.dst_mac = net::MacAddr::from_id(1);
        s.src_ip = 0x0a000002;
        s.dst_ip = 0x0a000901;
        s.src_port = 80;
        s.dst_port = 40000;
        seq.push_back({1, net::build_udp(s)});
    }
    // Two DNAT connections plus a re-hit of the first (established path).
    seq.push_back({0, udp(6000, 443)});
    seq.push_back({0, udp(6001, 443)});
    seq.push_back({0, udp(6000, 443)});

    DifferentialHarness harness(rs);
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.explained.empty()) << report.summary();
}

// The satellite bug this PR's comparator exists to catch: the old
// CtSnapshotEntry omitted the mark (and NAT tuple), so a datapath that
// stored a wrong mark produced identical verdicts AND an identical
// snapshot — invisible. Now a fault that corrupts only the committed
// mark on one datapath must surface as exactly one unexplained
// end-state divergence naming the conntrack table.
TEST(DifferentialFault, CorruptedCtMarkCaughtByEndStateDiff)
{
    DiffRuleset rs;
    kern::CtSpec spec;
    spec.commit = true;
    spec.set_mark = true;
    spec.mark = 5;
    DiffRule r = rule(10, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(2)});
    r.mask.bits.nw_proto = 0xff;
    r.match.nw_proto = 17;
    rs.rules.push_back(std::move(r));

    DiffOptions opts;
    opts.minimize = false; // end-state divergences have no packet step
    DifferentialHarness harness(rs, opts);
    harness.set_fault(DpKind::Ebpf, [](std::vector<kern::OdpAction>& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::Ct) a.ct.mark = 6;
        }
    });

    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80)});
    const DiffReport report = harness.run(seq);
    // The verdict stream is identical — the mark never reaches the wire.
    ASSERT_EQ(report.unexplained.size(), 1u) << report.summary();
    EXPECT_TRUE(report.explained.empty()) << report.summary();
    EXPECT_NE(report.unexplained[0].detail.find("conntrack"), std::string::npos)
        << report.unexplained[0].detail;
    EXPECT_NE(report.unexplained[0].detail.find("mark=6"), std::string::npos)
        << report.unexplained[0].detail;
}

// Both lookup-based datapaths cap recirculation depth at 8; a
// self-recirculating ruleset must drop (not loop or diverge) everywhere.
TEST(DifferentialRegression, RecirculationDepthLimitAgrees)
{
    DiffRuleset rs;
    rs.rules.push_back(rule(50, {kern::OdpAction::recirc(0x200)}));
    {
        DiffRule r;
        r.priority = 40;
        r.mask.bits.recirc_id = 0xffffffff;
        r.match.recirc_id = 0x200;
        r.actions = {kern::OdpAction::recirc(0x200)};
        rs.rules.push_back(std::move(r));
    }

    DifferentialHarness harness(rs);
    std::vector<DiffPacket> seq;
    for (int i = 0; i < 3; ++i) seq.push_back({0, udp(1000, 80)});
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// dpif-ebpf used to leak action-shadow entries when the same exact key
// was re-put (every slow-path packet of a map-invisible flow re-puts).
// The end-state check walks the map and the shadow and requires them 1:1.
TEST(DifferentialRegression, EbpfFlowShadowStaysConsistentAcrossReputs)
{
    DiffRuleset rs;
    DiffRule r = rule(10, {kern::OdpAction::output(2)});
    r.mask.bits.nw_proto = 0xff;
    r.match.nw_proto = 17;
    rs.rules.push_back(std::move(r));

    DifferentialHarness harness(rs);
    std::vector<DiffPacket> seq;
    // IP-options frames (IHL != 5) never match the eBPF parser's
    // fixed-header fast path, so every one upcalls and re-puts the same
    // exact (5-tuple) key.
    for (int i = 0; i < 3; ++i) {
        seq.push_back({0, net::with_ip_options(udp(1000, 80), 8)});
    }
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// The eBPF map key now carries the VLAN TCI (and IP ToS), so rulesets
// matching vlan_tci are fully expressible: tagged and untagged twins of
// the same 5-tuple land in *different* map entries and every datapath
// agrees — with no "ebpf-key-dimensions" explanation needed.
TEST(DifferentialAllowlist, VlanRulesNowAgreeAcrossAllDatapaths)
{
    DiffRuleset rs;
    {
        DiffRule r = rule(50, {kern::OdpAction::output(2)});
        r.mask.bits.vlan_tci = 0xffff;
        r.match.vlan_tci = 0x1000 | 100;
        rs.rules.push_back(std::move(r));
    }
    rs.rules.push_back(rule(1, {kern::OdpAction::output(3)}));

    DifferentialHarness harness(rs);
    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80, /*vlan_tci=*/100)}); // tagged → port 2
    seq.push_back({0, udp(1000, 80)});                   // untagged → port 3
    seq.push_back({0, udp(1000, 80, /*vlan_tci=*/100)}); // map hit, still port 2
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_TRUE(report.explained.empty()) << report.summary();
}

// A ruleset matching dl_dst — a dimension still absent from the eBPF map
// key — makes eBPF alias microflows that differ only in destination MAC
// into one entry. That is an *explained* divergence: it must be reported
// under its allowlist tag, never silently dropped and never counted as
// unexplained.
TEST(DifferentialAllowlist, MacKeyDimensionDivergenceIsExplainedNotSilent)
{
    DiffRuleset rs;
    {
        DiffRule r = rule(50, {kern::OdpAction::output(2)});
        r.mask.bits.dl_dst = net::MacAddr(0xff, 0xff, 0xff, 0xff, 0xff, 0xff);
        r.match.dl_dst = net::MacAddr::from_id(2);
        rs.rules.push_back(std::move(r));
    }
    rs.rules.push_back(rule(1, {kern::OdpAction::output(3)}));

    DifferentialHarness harness(rs);
    std::vector<DiffPacket> seq;
    seq.push_back({0, udp(1000, 80)}); // dst MAC from_id(2): installs aliased entry
    {
        net::UdpSpec s;
        s.src_mac = net::MacAddr::from_id(1);
        s.dst_mac = net::MacAddr::from_id(3); // same 5-tuple, other MAC
        s.src_ip = 0x0a000001;
        s.dst_ip = 0x0a000002;
        s.src_port = 1000;
        s.dst_port = 80;
        seq.push_back({0, net::build_udp(s)});
    }
    const DiffReport report = harness.run(seq);
    EXPECT_TRUE(report.ok()) << report.summary();
    ASSERT_FALSE(report.explained.empty());
    for (const auto& d : report.explained) {
        EXPECT_EQ(d.explanation, "ebpf-key-dimensions") << d.detail;
    }
}

// Multi-queue RSS: with num_queues > 1 the PMD polls every queue of each
// NIC and the hash-spread frames must still produce identical verdicts
// and end state across all three datapaths.
TEST(DifferentialFuzz, MultiQueueRssSeedClean)
{
    FuzzConfig cfg;
    cfg.num_queues = 2;
    const DiffReport report = fuzz_run(/*seed=*/0xC0FFEE, cfg, 2000);
    EXPECT_EQ(report.packets_run, 2000u);
    EXPECT_TRUE(report.ok()) << report.summary();
    expect_explained_allowlisted(report);
}

// ---- burst twins: two fresh instances of one provider, one schedule -----
//
// Unlike the cross-datapath comparisons above, both sides here run the
// SAME provider on the same ruleset under one chunked injection
// schedule, so there is no allowlist: any divergence — verdict, flow
// table, conntrack, semantic counters — is a bug in the burst path or
// state leaking between instances. Each corpus targets a burst hazard:
// ct+NAT (state carried between packets of one burst), fragments
// (malformed/partial headers in the middle of a burst), VLAN (push/pop
// rewrites), and tunnel encaps (decap changing the key mid-burst).

const DpKind kAllKinds[] = {DpKind::Netdev, DpKind::Kernel, DpKind::Ebpf};

TEST(BurstTwins, CtNatCorpusAgreesOnEveryProvider)
{
    DiffRuleset rs;
    {
        kern::CtSpec spec;
        spec.commit = true;
        spec.nat = kern::NatSpec::src(0x0a000901, 41000, 41003);
        DiffRule r = rule(50, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(1)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        r.mask.bits.tp_dst = 0xffff;
        r.match.tp_dst = 80;
        rs.rules.push_back(std::move(r));
    }
    {
        kern::CtSpec spec;
        DiffRule r = rule(30, {kern::OdpAction::conntrack(spec), kern::OdpAction::output(3)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        rs.rules.push_back(std::move(r));
    }

    std::vector<DiffPacket> seq;
    // Three NATed connections, a reply that must de-NAT through the
    // binding the *batch* created, then established re-hits — all close
    // enough together to land in one burst.
    for (std::uint16_t i = 0; i < 3; ++i) {
        seq.push_back({0, udp(static_cast<std::uint16_t>(7000 + i), 80)});
    }
    {
        net::UdpSpec s;
        s.src_mac = net::MacAddr::from_id(2);
        s.dst_mac = net::MacAddr::from_id(1);
        s.src_ip = 0x0a000002;
        s.dst_ip = 0x0a000901;
        s.src_port = 80;
        s.dst_port = 41000;
        seq.push_back({1, net::build_udp(s)});
    }
    for (std::uint16_t i = 0; i < 3; ++i) {
        seq.push_back({0, udp(static_cast<std::uint16_t>(7000 + i), 80)});
    }

    for (const DpKind kind : kAllKinds) {
        DifferentialHarness harness(rs);
        const DiffReport report = harness.run_burst_twins(seq, kind, 8);
        EXPECT_TRUE(report.ok()) << to_string(kind) << ": " << report.summary();
        EXPECT_TRUE(report.explained.empty()) << to_string(kind);
    }
}

TEST(BurstTwins, FragmentCorpusAgreesOnEveryProvider)
{
    // Wildcard forward plus an L4-match rule the non-first fragments
    // cannot hit (their transport header is missing): fragment handling
    // must classify identically whether the frags arrive mid-burst or
    // one at a time.
    DiffRuleset rs;
    {
        DiffRule r = rule(40, {kern::OdpAction::output(2)});
        r.mask.bits.nw_proto = 0xff;
        r.match.nw_proto = 17;
        r.mask.bits.tp_dst = 0xffff;
        r.match.tp_dst = 9999;
        rs.rules.push_back(std::move(r));
    }
    rs.rules.push_back(rule(10, {kern::OdpAction::output(1)}));

    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 4; ++i) {
        net::Packet whole = udp(static_cast<std::uint16_t>(8000 + i), 9999);
        seq.push_back({0, net::as_fragment(whole, 0, true)});   // first frag, MF set
        seq.push_back({0, net::as_fragment(whole, 185, false)}); // tail frag, no L4
        seq.push_back({0, std::move(whole)});                    // unfragmented control
    }

    for (const DpKind kind : kAllKinds) {
        DifferentialHarness harness(rs);
        const DiffReport report = harness.run_burst_twins(seq, kind, 8);
        EXPECT_TRUE(report.ok()) << to_string(kind) << ": " << report.summary();
        EXPECT_TRUE(report.explained.empty()) << to_string(kind);
    }
}

TEST(BurstTwins, VlanCorpusAgreesOnEveryProvider)
{
    DiffRuleset rs;
    {
        // Tagged traffic on vlan 100: pop and forward.
        DiffRule r = rule(50, {kern::OdpAction::pop_vlan(), kern::OdpAction::output(2)});
        r.mask.bits.vlan_tci = 0xffff;
        r.match.vlan_tci = 0x1064; // present bit | vid 100
        rs.rules.push_back(std::move(r));
    }
    // Untagged: push vlan 200 and forward.
    rs.rules.push_back(
        rule(20, {kern::OdpAction::push_vlan(0x10c8), kern::OdpAction::output(3)}));

    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 6; ++i) {
        // Interleave tagged and untagged so one burst holds both and
        // the burst path must keep the rewrites per-packet.
        seq.push_back({0, udp(static_cast<std::uint16_t>(8100 + i), 53,
                              (i % 2) ? std::uint16_t{0x1064} : std::uint16_t{0})});
    }

    for (const DpKind kind : kAllKinds) {
        DifferentialHarness harness(rs);
        const DiffReport report = harness.run_burst_twins(seq, kind, 8);
        EXPECT_TRUE(report.ok()) << to_string(kind) << ": " << report.summary();
        EXPECT_TRUE(report.explained.empty()) << to_string(kind);
    }
}

TEST(BurstTwins, TunnelEncapCorpusAgreesOnEveryProvider)
{
    // Pre-encapsulated Geneve/VXLAN frames mixed with plain traffic:
    // decap rewrites the flow key mid-burst, the exact case where a
    // stale batched key would misclassify.
    DiffRuleset rs;
    rs.rules.push_back(rule(10, {kern::OdpAction::output(1)}));

    const auto encapped = [](net::TunnelType type, std::uint64_t vni, std::uint16_t sport) {
        net::UdpSpec inner;
        inner.src_mac = net::MacAddr::from_id(50);
        inner.dst_mac = net::MacAddr::from_id(51);
        inner.src_ip = 0xc0a80001;
        inner.dst_ip = 0xc0a80101;
        inner.src_port = sport;
        inner.dst_port = 3000;
        net::Packet pkt = net::build_udp(inner);
        net::TunnelKey key;
        key.tun_id = vni;
        key.ip_src = 0x0a000001;
        key.ip_dst = 0x0a000002;
        net::EncapParams params;
        params.outer_src_mac = net::MacAddr::from_id(1);
        params.outer_dst_mac = net::MacAddr::from_id(2);
        params.udp_src_port = static_cast<std::uint16_t>(20000 + sport);
        net::encapsulate(pkt, type, key, params);
        return pkt;
    };

    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 4; ++i) {
        seq.push_back({0, encapped(net::TunnelType::Geneve, 1 + i, 2000 + i)});
        seq.push_back({0, udp(static_cast<std::uint16_t>(8200 + i), 53)});
        seq.push_back({0, encapped(net::TunnelType::Vxlan, 5 + i, 2100 + i)});
    }

    for (const DpKind kind : kAllKinds) {
        DifferentialHarness harness(rs);
        const DiffReport report = harness.run_burst_twins(seq, kind, 8);
        EXPECT_TRUE(report.ok()) << to_string(kind) << ": " << report.summary();
        EXPECT_TRUE(report.explained.empty()) << to_string(kind);
    }
}

// The end-state compare must catch a flow that differs between the
// twins and name it from both sides. The fault's counter is shared by
// both twins, and each chunk drains twin a before twin b, so only twin
// a's first upcall installs the corrupted output port.
TEST(BurstTwins, EndStateDivergenceNamesTheFlow)
{
    DiffRuleset rs;
    DiffRule r = rule(10, {kern::OdpAction::output(2)});
    r.mask.bits.nw_proto = 0xff;
    r.match.nw_proto = 17;
    rs.rules.push_back(std::move(r));
    std::vector<DiffPacket> seq;
    for (int i = 0; i < 4; ++i) seq.push_back({0, udp(1000, 80)});

    for (const DpKind kind : kAllKinds) {
        DifferentialHarness harness(rs);
        auto upcalls = std::make_shared<int>(0);
        harness.set_fault(kind, [upcalls](std::vector<kern::OdpAction>& actions) {
            if ((*upcalls)++ > 0) return;
            for (auto& a : actions) {
                if (a.type == kern::OdpAction::Type::Output) a.port = 3;
            }
        });
        const DiffReport report = harness.run_burst_twins(seq, kind, 4);
        const auto end_state =
            std::find_if(report.unexplained.begin(), report.unexplained.end(),
                         [&](const Divergence& d) { return d.step == seq.size(); });
        ASSERT_NE(end_state, report.unexplained.end()) << to_string(kind) << ": "
                                                       << report.summary();
        EXPECT_NE(end_state->detail.find("flow tables differ"), std::string::npos)
            << end_state->detail;
        EXPECT_NE(end_state->detail.find("only-a:"), std::string::npos) << end_state->detail;
        EXPECT_NE(end_state->detail.find("only-b:"), std::string::npos) << end_state->detail;
    }
}

TEST(BurstTwins, DegeneratePartialAndFullBurstsAllAgree)
{
    // batch_size 1 (every burst degenerate), 5 (never aligns with the
    // sequence length), and 32 (full rx burst): each twin pair must
    // agree on the same traffic.
    DiffRuleset rs;
    rs.rules.push_back(rule(10, {kern::OdpAction::output(1)}));
    std::vector<DiffPacket> seq;
    for (std::uint16_t i = 0; i < 37; ++i) {
        seq.push_back({i % 2, udp(static_cast<std::uint16_t>(9000 + i), 53)});
    }
    for (const std::size_t batch_size : {1u, 5u, 32u}) {
        DifferentialHarness harness(rs);
        const DiffReport report = harness.run_burst_twins(seq, DpKind::Netdev, batch_size);
        EXPECT_TRUE(report.ok()) << "b=" << batch_size << ": " << report.summary();
    }
}

} // namespace
} // namespace ovsx::gen

// ovsx::obs: interned coverage counters, per-packet trace spans, the
// appctl command registry and the metrics exporter — plus the
// integration guarantees PR 3 makes: all three dataplane providers
// answer the same appctl commands, identical seeded runs produce
// identical coverage snapshots, and a forced differential mismatch
// prints the divergent packet's per-provider trace.
#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/fuzz.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "net/builder.h"
#include "net/headers.h"
#include "obs/appctl.h"
#include "obs/coverage.h"
#include "obs/histogram.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "obs/value.h"
#include "obs/window.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/vswitch.h"
#include "sim/context.h"

namespace ovsx {
namespace {

// ---- coverage counters -------------------------------------------------

TEST(ObsCoverage, InterningIsStableAndLookupDoesNotRegister)
{
    const auto id1 = obs::coverage_id("test_obs.alpha");
    const auto id2 = obs::coverage_id("test_obs.alpha");
    EXPECT_EQ(id1, id2);
    EXPECT_EQ(obs::coverage_name(id1), std::string("test_obs.alpha"));

    EXPECT_FALSE(obs::coverage_find("test_obs.never_registered").has_value());
    ASSERT_TRUE(obs::coverage_find("test_obs.alpha").has_value());
    EXPECT_EQ(*obs::coverage_find("test_obs.alpha"), id1);
}

TEST(ObsCoverage, ContextCountsAggregateIntoGlobal)
{
    const auto id = obs::coverage_id("test_obs.ctx_agg");
    const std::uint64_t before = obs::coverage_value(id);

    sim::ExecContext a("a", sim::CpuClass::User);
    sim::ExecContext b("b", sim::CpuClass::User);
    a.count(id, 3);
    b.count(id);
    b.count("test_obs.ctx_agg", 2); // string-compat path interns to the same id

    EXPECT_EQ(a.counter(id), 3u);
    EXPECT_EQ(b.counter(id), 3u);
    EXPECT_EQ(a.counter("test_obs.ctx_agg"), 3u);
    EXPECT_EQ(obs::coverage_value(id), before + 6);

    // The string map view resolves interned ids back to names.
    const auto counters = a.counters();
    ASSERT_TRUE(counters.contains("test_obs.ctx_agg"));
    EXPECT_EQ(counters.at("test_obs.ctx_agg"), 3u);
}

TEST(ObsCoverage, SnapshotFiltersZerosAndResetClears)
{
    const auto id = obs::coverage_id("test_obs.reset_me");
    obs::coverage_inc(id, 7);
    auto snap = obs::coverage_snapshot();
    const auto find = [&](const char* name) {
        for (const auto& [n, v] : snap) {
            if (n == name) return v;
        }
        return std::uint64_t{0};
    };
    EXPECT_EQ(find("test_obs.reset_me"), 7u);

    obs::coverage_reset();
    EXPECT_EQ(obs::coverage_value(id), 0u);
    snap = obs::coverage_snapshot();
    EXPECT_EQ(find("test_obs.reset_me"), 0u); // zero entries are filtered
    // The name registration survives the reset.
    EXPECT_TRUE(obs::coverage_find("test_obs.reset_me").has_value());
}

TEST(ObsCoverage, PerThreadCellsSumExactlyAcrossLiveAndExitedThreads)
{
    constexpr std::uint64_t kPerThread = 100'000;
    const auto id = obs::coverage_id("test_obs.threads");
    const std::uint64_t before = obs::coverage_value(id);
    const auto snapshot_value = [] {
        for (const auto& [name, v] : obs::coverage_snapshot()) {
            if (name == "test_obs.threads") return v;
        }
        return std::uint64_t{0};
    };

    // Each thread adds half through the global macro and half through
    // a per-thread ExecContext, which feeds the same global cells.
    const auto count = [id] {
        sim::ExecContext ctx("counter", sim::CpuClass::User);
        for (std::uint64_t i = 0; i < kPerThread / 2; ++i) {
            OVSX_COVERAGE("test_obs.threads");
            ctx.count(id);
        }
        EXPECT_EQ(ctx.counter(id), kPerThread / 2);
    };
    std::latch counted(2);
    std::latch release(1);
    std::vector<std::thread> exiting;
    std::vector<std::thread> live;
    for (int i = 0; i < 2; ++i) exiting.emplace_back(count);
    for (int i = 0; i < 2; ++i) {
        live.emplace_back([&] {
            count();
            counted.count_down();
            release.wait(); // stay alive, cells registered, until released
        });
    }
    for (auto& t : exiting) t.join();
    counted.wait();

    // Two threads have exited (their cells folded into the retired
    // total), two are still running (their cells are live).
    EXPECT_EQ(obs::coverage_value(id), before + 4 * kPerThread);
    EXPECT_EQ(snapshot_value(), before + 4 * kPerThread);

    obs::coverage_reset();
    EXPECT_EQ(obs::coverage_value(id), 0u);
    EXPECT_EQ(snapshot_value(), 0u);

    release.count_down();
    for (auto& t : live) t.join();
    // The live threads' zeroed cells fold in as zero when they exit.
    EXPECT_EQ(obs::coverage_value(id), 0u);

    // Counting resumes on the zeroed totals, from a fresh thread too.
    std::thread(count).join();
    EXPECT_EQ(obs::coverage_value(id), kPerThread);
}

// ---- trace ring ---------------------------------------------------------

TEST(ObsTrace, RingOverwritesOldestAndKeepsNewest)
{
    obs::Tracer t;
    t.enable(4);
    for (std::uint32_t i = 1; i <= 6; ++i) {
        t.record(i, obs::Hop::NicRx, static_cast<std::int64_t>(i) * 10, "rx", i);
    }
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.capacity(), 4u);

    // 1 and 2 were overwritten; 3..6 survive, oldest first.
    EXPECT_TRUE(t.events_for(1).empty());
    EXPECT_TRUE(t.events_for(2).empty());
    const auto all = t.all();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all.front().packet_id, 3u);
    EXPECT_EQ(all.back().packet_id, 6u);

    EXPECT_NE(t.dump(2).find("no events"), std::string::npos);
    EXPECT_NE(t.dump(5).find("nic-rx"), std::string::npos);
}

TEST(ObsTrace, DisabledTracerRecordsNothing)
{
    obs::Tracer t;
    t.record(1, obs::Hop::Tx, 0, "tx");
    EXPECT_EQ(t.recorded(), 0u);
    t.enable(8);
    t.record(0, obs::Hop::Tx, 0, "tx"); // id 0 = untraced
    EXPECT_EQ(t.recorded(), 0u);
    t.record(1, obs::Hop::Tx, 0, "tx");
    EXPECT_EQ(t.recorded(), 1u);
    t.disable();
    t.record(2, obs::Hop::Tx, 0, "tx");
    EXPECT_EQ(t.recorded(), 1u);
}

TEST(ObsTrace, DumpGroupsByDomain)
{
    obs::Tracer t;
    t.enable(16);
    t.set_domain("netdev");
    t.record(7, obs::Hop::Emc, 100, "miss");
    t.set_domain("kernel");
    t.record(7, obs::Hop::KernelFlow, 120, "hit", 2);
    const std::string dump = t.dump(7);
    EXPECT_NE(dump.find("[netdev]"), std::string::npos);
    EXPECT_NE(dump.find("[kernel]"), std::string::npos);
    EXPECT_NE(dump.find("emc"), std::string::npos);
    EXPECT_NE(dump.find("kernel-flow"), std::string::npos);
}

// ---- appctl on all three providers -------------------------------------

const std::vector<std::string> kRequiredCommands = {
    "coverage/show",    "memory/show",
    "shards/show",
    "latency/show",     "dpif-netdev/pmd-stats-show",
    "dpctl/dump-flows", "conntrack/show",
    "xsk/ring-stats",   "dpif-netdev/pmd-rxq-show",
    "dpif-netdev/pmd-rebalance",
    "pmd/perf-show",    "pmd/perf-log",
};

void expect_command_surface(obs::Appctl& appctl, const char* provider)
{
    for (const auto& cmd : kRequiredCommands) {
        ASSERT_TRUE(appctl.has(cmd)) << provider << " missing " << cmd;
        // Every command renders as text and as JSON that round-trips
        // through the obs JSON reader.
        const std::string text = appctl.run(cmd, {}, obs::Appctl::Format::Text);
        const std::string json = appctl.run(cmd, {}, obs::Appctl::Format::Json);
        EXPECT_TRUE(obs::json_parse(json).has_value())
            << provider << " " << cmd << " produced unparseable JSON: " << json;
        (void)text;
    }
    // Consistent shapes regardless of provider.
    const obs::Value stats = appctl.run_value("dpif-netdev/pmd-stats-show");
    ASSERT_NE(stats.find("datapath"), nullptr) << provider;
    ASSERT_NE(stats.find("stats"), nullptr) << provider;
    ASSERT_NE(stats.find("pmds"), nullptr) << provider;
    EXPECT_NE(stats.find("stats")->find("hits"), nullptr) << provider;
    const obs::Value rings = appctl.run_value("xsk/ring-stats");
    ASSERT_NE(rings.find("rings"), nullptr) << provider;
    EXPECT_TRUE(rings.find("rings")->is_array()) << provider;
    const obs::Value flows = appctl.run_value("dpctl/dump-flows");
    ASSERT_NE(flows.find("flow_count"), nullptr) << provider;
    const obs::Value ct = appctl.run_value("conntrack/show");
    ASSERT_NE(ct.find("count"), nullptr) << provider;
    // latency/show is an object keyed provider -> tier on every dpif.
    EXPECT_TRUE(appctl.run_value("latency/show").is_object()) << provider;
    const obs::Value rxq = appctl.run_value("dpif-netdev/pmd-rxq-show");
    ASSERT_NE(rxq.find("datapath"), nullptr) << provider;
    ASSERT_NE(rxq.find("pmds"), nullptr) << provider;
    EXPECT_TRUE(rxq.find("pmds")->is_array()) << provider;
    const obs::Value reb = appctl.run_value("dpif-netdev/pmd-rebalance");
    ASSERT_NE(reb.find("rebalanced"), nullptr) << provider;
    ASSERT_NE(reb.find("detail"), nullptr) << provider;
    // The profiler commands share one shape on every provider:
    // {datapath, pmds: {name -> row}}.
    const obs::Value perf = appctl.run_value("pmd/perf-show");
    ASSERT_NE(perf.find("datapath"), nullptr) << provider;
    ASSERT_NE(perf.find("pmds"), nullptr) << provider;
    EXPECT_TRUE(perf.find("pmds")->is_object()) << provider;
    const obs::Value plog = appctl.run_value("pmd/perf-log");
    ASSERT_NE(plog.find("datapath"), nullptr) << provider;
    ASSERT_NE(plog.find("pmds"), nullptr) << provider;
    EXPECT_TRUE(plog.find("pmds")->is_object()) << provider;
}

TEST(ObsAppctl, AllThreeProvidersAnswerTheSameCommands)
{
    {
        kern::Kernel host;
        auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        auto dpif = std::make_unique<ovs::DpifNetdev>(host);
        dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(nic));
        ovs::VSwitch vs(std::move(dpif));
        expect_command_surface(vs.appctl(), "netdev");
        // The AF_XDP port must show up in xsk/ring-stats.
        const obs::Value rings = vs.appctl().run_value("xsk/ring-stats");
        ASSERT_EQ(rings.find("rings")->items().size(), 1u);
        EXPECT_EQ(rings.find("rings")->items()[0].find("dev")->as_string(), "eth0");
    }
    {
        kern::Kernel host;
        kern::OvsKernelDatapath dp(host);
        ovs::VSwitch vs(std::make_unique<ovs::DpifKernel>(dp));
        expect_command_surface(vs.appctl(), "kernel");
        EXPECT_TRUE(vs.appctl().run_value("xsk/ring-stats").find("rings")->items().empty());
    }
    {
        kern::Kernel host;
        ovs::VSwitch vs(std::make_unique<ovs::DpifEbpf>(host));
        expect_command_surface(vs.appctl(), "ebpf");
        EXPECT_TRUE(vs.appctl().run_value("xsk/ring-stats").find("rings")->items().empty());
    }
}

TEST(ObsAppctl, KernelPmdStatsGoldenText)
{
    kern::Kernel host;
    kern::OvsKernelDatapath dp(host);
    ovs::VSwitch vs(std::make_unique<ovs::DpifKernel>(dp));
    EXPECT_EQ(vs.appctl().run("dpif-netdev/pmd-stats-show"),
              "datapath: system\n"
              "stats:\n"
              "  hits: 0\n"
              "  misses: 0\n"
              "  lost: 0\n"
              "pmds:\n");
}

// conntrack/show must render the exact same text — NAT columns
// included — no matter which provider answers it. The netdev provider
// reads its userspace tracker, the kernel and eBPF providers read the
// host kernel's tracker; identical traffic must yield byte-identical
// output on all three.
TEST(ObsAppctl, ConntrackShowNatGoldenTextIdenticalAcrossProviders)
{
    // One SNAT'd connection (203.0.113.9, first port of the range) plus
    // its de-NATed reply, driven straight through each tracker.
    const auto drive = [](auto& tracker) {
        sim::ExecContext ctx{"test", sim::CpuClass::User};
        kern::CtSpec spec;
        spec.zone = 3;
        spec.commit = true;
        spec.set_mark = true;
        spec.mark = 7;
        spec.nat = kern::NatSpec::src(net::ipv4(203, 0, 113, 9), 40000, 40010);

        net::TcpSpec syn;
        syn.src_ip = net::ipv4(10, 0, 0, 1);
        syn.dst_ip = net::ipv4(10, 0, 0, 2);
        syn.src_port = 1000;
        syn.dst_port = 80;
        syn.flags = net::kTcpSyn;
        net::Packet p1 = net::build_tcp(syn);
        tracker.process(p1, net::parse_flow(p1), spec, ctx);

        net::TcpSpec rep;
        rep.src_ip = net::ipv4(10, 0, 0, 2);
        rep.dst_ip = net::ipv4(203, 0, 113, 9);
        rep.src_port = 80;
        rep.dst_port = 40000;
        rep.flags = net::kTcpSyn | net::kTcpAck;
        net::Packet p2 = net::build_tcp(rep);
        kern::CtSpec plain;
        plain.zone = 3;
        tracker.process(p2, net::parse_flow(p2), plain, ctx);
    };

    const std::string golden = "count: 1\n"
                               "entries:\n"
                               "  -\n"
                               "    src: 10.0.0.1\n"
                               "    dst: 10.0.0.2\n"
                               "    sport: 1000\n"
                               "    dport: 80\n"
                               "    proto: 6\n"
                               "    zone: 3\n"
                               "    confirmed: true\n"
                               "    seen_reply: true\n"
                               "    mark: 7\n"
                               "    nat: true\n"
                               "    reply_src: 10.0.0.2\n"
                               "    reply_dst: 203.0.113.9\n"
                               "    reply_sport: 80\n"
                               "    reply_dport: 40000\n"
                               "    packets: 2\n";

    {
        kern::Kernel host;
        auto& nic = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        auto dpif = std::make_unique<ovs::DpifNetdev>(host);
        dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(nic));
        ovs::DpifNetdev* raw = dpif.get();
        ovs::VSwitch vs(std::move(dpif));
        drive(raw->ct());
        EXPECT_EQ(vs.appctl().run("conntrack/show"), golden) << "netdev";
    }
    {
        kern::Kernel host;
        kern::OvsKernelDatapath dp(host);
        ovs::VSwitch vs(std::make_unique<ovs::DpifKernel>(dp));
        drive(host.conntrack());
        EXPECT_EQ(vs.appctl().run("conntrack/show"), golden) << "kernel";
    }
    {
        kern::Kernel host;
        ovs::VSwitch vs(std::make_unique<ovs::DpifEbpf>(host));
        drive(host.conntrack());
        EXPECT_EQ(vs.appctl().run("conntrack/show"), golden) << "ebpf";
    }
}

TEST(ObsAppctl, CoverageShowReflectsCounters)
{
    obs::Appctl appctl;
    obs::coverage_inc(obs::coverage_id("test_obs.appctl_cov"), 5);
    const obs::Value v = appctl.run_value("coverage/show");
    ASSERT_NE(v.find("test_obs.appctl_cov"), nullptr);
    EXPECT_GE(v.find("test_obs.appctl_cov")->as_uint(), 5u);

    const std::string json = appctl.run("coverage/show", {}, obs::Appctl::Format::Json);
    const auto parsed = obs::json_parse(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_GE(parsed->find("test_obs.appctl_cov")->as_uint(), 5u);
}

TEST(ObsAppctl, UnknownCommandThrows)
{
    obs::Appctl appctl;
    EXPECT_THROW((void)appctl.run_value("no/such-command"), std::invalid_argument);
}

// ---- metrics exporter ---------------------------------------------------

TEST(ObsMetrics, DottedPathsAndSchema)
{
    obs::metrics_reset();
    obs::metrics_set("t.a.b", obs::Value(std::uint64_t{42}));
    obs::metrics_set("t.a.c", obs::Value("x"));
    ASSERT_TRUE(obs::metrics_get("t.a.b").has_value());
    EXPECT_EQ(obs::metrics_get("t.a.b")->as_uint(), 42u);

    const auto doc = obs::json_parse(obs::metrics_json());
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("schema"), nullptr);
    EXPECT_EQ(doc->find("schema")->as_string(), obs::kMetricsSchema);
    EXPECT_EQ(doc->find("schema")->as_string(), "ovsx-obs-v5");
    ASSERT_NE(doc->find("coverage"), nullptr);
    ASSERT_NE(doc->find("metrics"), nullptr);
    // v2 added the histograms and windows sections.
    ASSERT_NE(doc->find("histograms"), nullptr);
    EXPECT_TRUE(doc->find("histograms")->is_object());
    ASSERT_NE(doc->find("windows"), nullptr);
    EXPECT_TRUE(doc->find("windows")->is_object());
    // v3 adds the INT section: observed fabric paths with per-hop stats.
    ASSERT_NE(doc->find("int"), nullptr);
    EXPECT_TRUE(doc->find("int")->is_object());
    ASSERT_NE(doc->find("int")->find("paths"), nullptr);
    EXPECT_TRUE(doc->find("int")->find("paths")->is_object());
    // v4 adds the perf section: profiler totals plus live PMD rows.
    ASSERT_NE(doc->find("perf"), nullptr);
    EXPECT_TRUE(doc->find("perf")->is_object());
    ASSERT_NE(doc->find("perf")->find("iterations"), nullptr);
    ASSERT_NE(doc->find("perf")->find("packets"), nullptr);
    ASSERT_NE(doc->find("perf")->find("suspicious"), nullptr);
    ASSERT_NE(doc->find("perf")->find("pmds"), nullptr);
    EXPECT_TRUE(doc->find("perf")->find("pmds")->is_object());
    EXPECT_EQ(doc->find("metrics")->find("t")->find("a")->find("b")->as_uint(), 42u);
    obs::metrics_reset();
}

// ---- latency histograms -------------------------------------------------

TEST(ObsLatency, PercentileRankIsSharedAndClampsEdges)
{
    // THE nearest-rank rule, shared with sim::Histogram.
    EXPECT_EQ(obs::percentile_rank(10, 50), 5u);
    EXPECT_EQ(obs::percentile_rank(10, 90), 9u);
    EXPECT_EQ(obs::percentile_rank(10, 99), 10u);
    EXPECT_EQ(obs::percentile_rank(10, 0), 1u);
    EXPECT_EQ(obs::percentile_rank(10, -7), 1u);
    EXPECT_EQ(obs::percentile_rank(10, 100), 10u);
    EXPECT_EQ(obs::percentile_rank(10, 250), 10u);
    EXPECT_EQ(obs::percentile_rank(1, 50), 1u);
}

TEST(ObsLatency, HistogramLinearRegionIsExact)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(h.percentile(50), 0); // empty -> 0
    for (std::int64_t v = 0; v < 64; ++v) h.record(v);
    EXPECT_EQ(h.count(), 64u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 63);
    // Below 2^6 every bucket is 1 ns wide: percentiles are exact.
    EXPECT_EQ(h.percentile(50), 31);
    EXPECT_EQ(h.percentile(100), 63);
    h.record(-5); // negative deltas clamp to 0
    EXPECT_EQ(h.min(), 0);
}

TEST(ObsLatency, HistogramLogRegionBoundsRelativeError)
{
    obs::LatencyHistogram h;
    const std::int64_t v = 1'000'000;
    for (int i = 0; i < 100; ++i) h.record(v);
    const std::int64_t p99 = h.percentile(99);
    // Log-linear buckets with 16 sub-buckets: <= 1/16 relative error,
    // and the result clamps into the observed [min, max].
    EXPECT_GE(p99, v);
    EXPECT_LE(p99, v + v / 16);
    EXPECT_EQ(h.percentile(100), h.max());
    EXPECT_EQ(h.max(), v);
}

TEST(ObsLatency, MergeMatchesCombinedRecording)
{
    obs::LatencyHistogram a, b, combined;
    for (std::int64_t v : {10, 20, 5000, 40}) {
        a.record(v);
        combined.record(v);
    }
    for (std::int64_t v : {100, 900'000, 7}) {
        b.record(v);
        combined.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {50.0, 90.0, 99.0}) {
        EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
    }
}

TEST(ObsLatency, MergeWithEmptyOperandIsIdentityBothWays)
{
    obs::LatencyHistogram a, empty;
    for (std::int64_t v : {3, 70, 12'000}) a.record(v);
    const std::int64_t p50_before = a.percentile(50);

    // Merging an empty operand changes nothing — not even min/max.
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 3);
    EXPECT_EQ(a.max(), 12'000);
    EXPECT_EQ(a.percentile(50), p50_before);

    // Merging INTO an empty histogram adopts the operand wholesale.
    obs::LatencyHistogram fresh;
    fresh.merge(a);
    EXPECT_EQ(fresh.count(), 3u);
    EXPECT_EQ(fresh.min(), 3);
    EXPECT_EQ(fresh.max(), 12'000);
    for (double p : {50.0, 90.0, 99.0}) {
        EXPECT_EQ(fresh.percentile(p), a.percentile(p)) << p;
    }

    // Empty merged with empty stays empty.
    obs::LatencyHistogram e2;
    e2.merge(empty);
    EXPECT_EQ(e2.count(), 0u);
    EXPECT_EQ(e2.percentile(50), 0);
}

TEST(ObsLatency, SingleBucketPercentilesAllCollapse)
{
    obs::LatencyHistogram h;
    for (int i = 0; i < 1000; ++i) h.record(37);
    EXPECT_EQ(h.min(), 37);
    EXPECT_EQ(h.max(), 37);
    // Every percentile — including the p<=0 and p>=100 clamps — lands
    // in the one occupied bucket, clamped to the exact value.
    for (double p : {-5.0, 0.0, 1.0, 50.0, 99.0, 100.0, 400.0}) {
        EXPECT_EQ(h.percentile(p), 37) << p;
    }
    EXPECT_DOUBLE_EQ(h.mean(), 37.0);
}

TEST(ObsLatency, SaturatingMaxBucketClampsNotOverflows)
{
    obs::LatencyHistogram h;
    const std::int64_t huge = std::int64_t{1} << 62; // way past 2^48 ns
    h.record(huge);
    h.record(huge);
    h.record(5);
    // Both huge samples land in the last bucket — bucket_index must
    // not run off the array — and percentiles report that bucket's
    // upper edge (2^48 - 1, the documented saturation point), while
    // min/max keep the exact values.
    const std::int64_t saturated =
        (std::int64_t{1} << obs::LatencyHistogram::kMaxBits) - 1;
    EXPECT_EQ(obs::LatencyHistogram::bucket_index(static_cast<std::uint64_t>(huge)),
              obs::LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), huge);
    EXPECT_EQ(h.percentile(99), saturated);
    EXPECT_EQ(h.percentile(100), saturated);
    EXPECT_EQ(h.percentile(0), 5);

    // Merging two saturated histograms stays saturated, not wrapped.
    obs::LatencyHistogram other;
    other.record(huge);
    h.merge(other);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.max(), huge);
    EXPECT_EQ(h.percentile(90), saturated);
}

TEST(ObsLatency, SpanFeedRecordsDeltasAndSkipsMisses)
{
    obs::latency_reset();
    // A journey: emc miss at t=100 (probed, not resolved), megaflow hit
    // at t=130, tx at t=150. The miss must not record OR advance the
    // base timestamp: the megaflow delta subsumes the probing cost.
    obs::latency_feed_span(9, "testdom", obs::Hop::Emc, 100, "miss");
    obs::latency_feed_span(9, "testdom", obs::Hop::Megaflow, 130, "hit");
    obs::latency_feed_span(9, "testdom", obs::Hop::Tx, 150, "");
    const auto* emc = obs::latency_histogram("testdom", obs::Hop::Emc);
    ASSERT_NE(emc, nullptr); // the domain is interned...
    EXPECT_EQ(emc->count(), 0u); // ...but the missed tier recorded nothing
    const auto* mf = obs::latency_histogram("testdom", obs::Hop::Megaflow);
    ASSERT_NE(mf, nullptr);
    EXPECT_EQ(mf->count(), 1u);
    EXPECT_EQ(mf->max(), 130);
    const auto* tx = obs::latency_histogram("testdom", obs::Hop::Tx);
    ASSERT_NE(tx, nullptr);
    EXPECT_EQ(tx->max(), 20);
    // latency/show renders the fed tiers under the provider key.
    const obs::Value shown = obs::latency_show();
    const auto* dom = shown.find("testdom");
    ASSERT_NE(dom, nullptr);
    ASSERT_NE(dom->find("megaflow"), nullptr);
    EXPECT_EQ(dom->find("megaflow")->find("count")->as_uint(), 1u);
    EXPECT_EQ(dom->find("emc"), nullptr); // zero-count tiers are omitted
    obs::latency_reset();
}

TEST(ObsLatency, NewJourneyOnIdDomainOrTimeRegression)
{
    obs::latency_reset();
    obs::latency_feed_span(11, "testdom", obs::Hop::Emc, 100, "hit");
    // Same slot, different packet id: base restarts at 0.
    obs::latency_feed_span(11 + 2048, "testdom", obs::Hop::Emc, 500, "hit");
    // Same id, earlier timestamp (provider switch): new journey too.
    obs::latency_feed_span(11, "testdom", obs::Hop::Emc, 40, "hit");
    const auto* emc = obs::latency_histogram("testdom", obs::Hop::Emc);
    ASSERT_NE(emc, nullptr);
    EXPECT_EQ(emc->count(), 3u);
    EXPECT_EQ(emc->max(), 500); // not 400: the collision reset the base
    EXPECT_EQ(emc->min(), 40);
    obs::latency_reset();
}

// ---- windowed rates -----------------------------------------------------

TEST(ObsWindow, RatePrimesThenMeasures)
{
    obs::WindowedRate r;
    r.sample(1'000'000'000, 500); // priming: no window yet
    EXPECT_EQ(r.windows(), 0u);
    EXPECT_EQ(r.rate_per_sec(), 0.0);
    r.sample(2'000'000'000, 1500); // +1000 over 1 s
    EXPECT_EQ(r.windows(), 1u);
    EXPECT_EQ(r.last_delta(), 1000u);
    EXPECT_DOUBLE_EQ(r.rate_per_sec(), 1000.0);
    EXPECT_DOUBLE_EQ(r.ewma_per_sec(), 1000.0); // first window sets EWMA
}

TEST(ObsWindow, CounterResetMidWindowCountsNewValueOnly)
{
    obs::WindowedRate r;
    r.sample(0, 900);
    r.sample(1'000'000'000, 1000); // +100
    // Counter reset (process restart, coverage_reset): cumulative drops.
    r.sample(2'000'000'000, 40);
    EXPECT_EQ(r.windows(), 2u);
    EXPECT_EQ(r.last_delta(), 40u); // the whole new value, not a huge wrap
    EXPECT_DOUBLE_EQ(r.rate_per_sec(), 40.0);
}

TEST(ObsWindow, ZeroLengthWindowFoldsDeltaIntoNext)
{
    obs::WindowedRate r;
    r.sample(0, 0);
    r.sample(1'000'000'000, 100);
    EXPECT_EQ(r.windows(), 1u);
    r.sample(1'000'000'000, 160); // zero-length: +60 carried, no window
    EXPECT_EQ(r.windows(), 1u);
    EXPECT_EQ(r.last_delta(), 100u);
    r.sample(2'000'000'000, 200); // +40 plus the 60 carry over 1 s
    EXPECT_EQ(r.windows(), 2u);
    EXPECT_EQ(r.last_delta(), 100u);
    EXPECT_DOUBLE_EQ(r.rate_per_sec(), 100.0);
}

TEST(ObsWindow, EwmaConvergesToSteadyRate)
{
    obs::WindowedRate r(0.4);
    std::uint64_t cum = 0;
    std::int64_t now = 0;
    r.sample(now, cum);
    // One hot window, then a long steady run at 100/s: the EWMA must
    // approach 100 geometrically (each step closes the gap by alpha).
    now += 1'000'000'000;
    cum += 10'000;
    r.sample(now, cum);
    double prev_gap = 1e18;
    for (int i = 0; i < 30; ++i) {
        now += 1'000'000'000;
        cum += 100;
        r.sample(now, cum);
        const double gap = r.ewma_per_sec() - 100.0;
        EXPECT_GE(gap, 0.0);
        EXPECT_LT(gap, prev_gap);
        prev_gap = gap;
    }
    EXPECT_NEAR(r.ewma_per_sec(), 100.0, 1.0);
    EXPECT_DOUBLE_EQ(r.rate_per_sec(), 100.0);
}

TEST(ObsWindow, TickPrimesThenFiresOnIntervalCrossings)
{
    obs::Window w(1000);
    EXPECT_TRUE(w.tick(5)); // priming tick: feed baselines now
    EXPECT_EQ(w.closes(), 0u);
    w.feed("s", 10);
    EXPECT_FALSE(w.tick(900)); // not a full interval since the prime
    EXPECT_TRUE(w.tick(1005));
    EXPECT_EQ(w.closes(), 1u);
    w.feed("s", 30);
    const auto* s = w.series("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->last_delta(), 20u);
    EXPECT_EQ(w.series("never-fed"), nullptr);

    // Disabled window (interval 0) never ticks.
    obs::Window off;
    EXPECT_FALSE(off.tick(1'000'000));
}

TEST(ObsWindow, TrackedCoverageSampledAtCloses)
{
    const auto id = obs::coverage_id("test_obs.windowed");
    obs::Window w(1000);
    w.track_coverage("test_obs.windowed");
    w.track_coverage("test_obs.window_never_registered"); // reads as 0
    ASSERT_TRUE(w.tick(0));
    obs::coverage_inc(id, 50);
    ASSERT_TRUE(w.tick(1000));
    const auto* s = w.series("test_obs.windowed");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->last_delta(), 50u);
    // track_coverage must not intern data-derived names.
    EXPECT_FALSE(obs::coverage_find("test_obs.window_never_registered").has_value());

    const obs::Value v = w.to_value();
    EXPECT_EQ(v.find("interval_ns")->as_uint(), 1000u);
    ASSERT_NE(v.find("series"), nullptr);
    ASSERT_NE(v.find("series")->find("test_obs.windowed"), nullptr);

    obs::windows_publish("test_obs", w.to_value());
    const obs::Value snap = obs::windows_snapshot();
    ASSERT_NE(snap.find("test_obs"), nullptr);
}

TEST(ObsWindow, EwmaGlidesAcrossCounterReset)
{
    obs::WindowedRate r(0.4);
    std::int64_t now = 0;
    std::uint64_t cum = 0;
    r.sample(now, cum);
    for (int i = 0; i < 20; ++i) {
        now += 1'000'000'000;
        cum += 100;
        r.sample(now, cum);
    }
    EXPECT_NEAR(r.ewma_per_sec(), 100.0, 1.0);
    const double before = r.ewma_per_sec();

    // Counter reset (process restart): cumulative restarts at 40. The
    // delta is the new absolute value — not a wrapped negative — and
    // the EWMA takes exactly one alpha step toward the new rate rather
    // than spiking or going negative.
    now += 1'000'000'000;
    r.sample(now, 40);
    EXPECT_EQ(r.last_delta(), 40u);
    EXPECT_NEAR(r.ewma_per_sec(), before + 0.4 * (40.0 - before), 1e-9);
    EXPECT_GT(r.ewma_per_sec(), 40.0);
    EXPECT_LT(r.ewma_per_sec(), before);

    // Steady at the post-reset rate: converges to 40 like any regime
    // change, with no memory of the reset itself.
    cum = 40;
    for (int i = 0; i < 30; ++i) {
        now += 1'000'000'000;
        cum += 40;
        r.sample(now, cum);
    }
    EXPECT_NEAR(r.ewma_per_sec(), 40.0, 1.0);
    EXPECT_DOUBLE_EQ(r.rate_per_sec(), 40.0);
}

// ---- pmd cycle profiler -------------------------------------------------

TEST(ObsPerf, VirtualTscAttributesCyclesToStagesAndClasses)
{
    sim::ExecContext ctx("pmd", sim::CpuClass::User);
    ctx.attach_perf("test_obs.perf_tsc");
    obs::PmdPerf* perf = ctx.perf();
    ASSERT_NE(perf, nullptr);

    perf->begin_iteration();
    {
        obs::PerfStageScope rx(perf, obs::PerfStage::RxPoll);
        ctx.charge(sim::CpuClass::User, 100);
        {
            obs::PerfStageScope emc(perf, obs::PerfStage::EmcLookup);
            ctx.charge(sim::CpuClass::User, 40);
        }
        // Scope restored: this lands back in rx-poll.
        ctx.charge(sim::CpuClass::Softirq, 10);
    }
    ctx.charge(sim::CpuClass::User, 7); // outside any scope -> idle
    perf->end_iteration(3);

    EXPECT_EQ(perf->tsc(), 157);
    EXPECT_EQ(perf->stage_cycles(obs::PerfStage::RxPoll), 110);
    EXPECT_EQ(perf->stage_cycles(obs::PerfStage::EmcLookup), 40);
    EXPECT_EQ(perf->stage_cycles(obs::PerfStage::Idle), 7);
    EXPECT_EQ(perf->iterations(), 1u);
    EXPECT_EQ(perf->packets(), 3u);
    // The per-class cycle split mirrors the context's busy() exactly —
    // it is the same charge stream, which is what lets Table 4 derive
    // its CPU rows from the profiler.
    EXPECT_EQ(perf->class_cycles(static_cast<std::size_t>(sim::CpuClass::User)),
              ctx.busy(sim::CpuClass::User));
    EXPECT_EQ(perf->class_cycles(static_cast<std::size_t>(sim::CpuClass::Softirq)),
              ctx.busy(sim::CpuClass::Softirq));
}

TEST(ObsPerf, SeededSuspiciousIterationDumpsFlightRecorderDeterministically)
{
    const auto drive = [](sim::ExecContext& ctx) {
        obs::PmdPerf* perf = ctx.perf();
        ASSERT_NE(perf, nullptr);
        // Steady baseline past the warmup: 100 cycles over 4 packets
        // per iteration, EWMA cycles/packet settles at 25.
        for (int i = 0; i < 12; ++i) {
            perf->begin_iteration();
            {
                obs::PerfStageScope s(perf, obs::PerfStage::EmcLookup);
                ctx.charge(sim::CpuClass::User, 100);
            }
            perf->end_iteration(4);
        }
        EXPECT_EQ(perf->suspicious(), 0u);
        EXPECT_TRUE(perf->last_dump().empty());
        // One seeded outlier: 1000 cycles for a single packet, 40x the
        // EWMA — well past the 4x suspicion threshold.
        perf->begin_iteration();
        {
            obs::PerfStageScope s(perf, obs::PerfStage::Upcall);
            ctx.charge(sim::CpuClass::User, 1000);
        }
        perf->note_upcall();
        perf->end_iteration(1);
    };

    sim::ExecContext a("pmd-a", sim::CpuClass::User);
    a.attach_perf("test_obs.flight_a");
    drive(a);
    const obs::PmdPerf* pa = a.perf();
    EXPECT_EQ(pa->suspicious(), 1u);
    const auto& dump = pa->last_dump();
    ASSERT_EQ(dump.size(), 13u); // all iterations fit in the 32-deep ring
    EXPECT_TRUE(dump.back().suspicious);
    EXPECT_EQ(dump.back().iter, 13u);
    EXPECT_EQ(dump.back().packets, 1u);
    EXPECT_EQ(dump.back().upcalls, 1u);
    EXPECT_EQ(dump.back().cycles, 1000);
    EXPECT_EQ(dump.back().stage_cycles[static_cast<std::size_t>(obs::PerfStage::Upcall)],
              1000);
    EXPECT_FALSE(dump.front().suspicious);

    // pmd/perf-log renders the dump with the armed thresholds.
    const obs::Value log = pa->log_value();
    ASSERT_NE(log.find("last_dump"), nullptr);
    EXPECT_EQ(log.find("last_dump")->items().size(), 13u);

    // The virtual TSC makes the whole dump deterministic: an identical
    // run produces record-for-record identical output.
    sim::ExecContext b("pmd-b", sim::CpuClass::User);
    b.attach_perf("test_obs.flight_b");
    drive(b);
    const auto& dump2 = b.perf()->last_dump();
    ASSERT_EQ(dump2.size(), dump.size());
    for (std::size_t i = 0; i < dump.size(); ++i) {
        EXPECT_EQ(dump[i].iter, dump2[i].iter) << i;
        EXPECT_EQ(dump[i].tsc_start, dump2[i].tsc_start) << i;
        EXPECT_EQ(dump[i].cycles, dump2[i].cycles) << i;
        EXPECT_EQ(dump[i].packets, dump2[i].packets) << i;
        EXPECT_EQ(dump[i].upcalls, dump2[i].upcalls) << i;
        EXPECT_EQ(dump[i].suspicious, dump2[i].suspicious) << i;
    }
}

TEST(ObsPerf, QuietStretchFlushesEwmasToZeroAndKeepsUpcallVerdicts)
{
    // 8 warm-up iterations with upcalls and cycles, then 5,000 quiet
    // ones: no upcalls, and packets that cost no cycles, so both EWMAs
    // decay toward zero. Unflushed, they would stick at the smallest
    // subnormal double after about 1,450 iterations.
    const auto drive_quiet = [](obs::PmdPerf& perf, sim::ExecContext& ctx) {
        for (int i = 0; i < 8; ++i) {
            perf.begin_iteration();
            ctx.charge(100);
            perf.note_upcall();
            perf.note_upcall();
            perf.end_iteration(1);
        }
        for (int i = 0; i < 5000; ++i) {
            perf.begin_iteration();
            perf.end_iteration(1);
            ASSERT_NE(std::fpclassify(perf.ewma_upcalls()), FP_SUBNORMAL) << i;
            ASSERT_NE(std::fpclassify(perf.ewma_cycles_per_pkt()), FP_SUBNORMAL) << i;
        }
        EXPECT_EQ(perf.ewma_upcalls(), 0.0);
        EXPECT_EQ(perf.ewma_cycles_per_pkt(), 0.0);
    };
    // After the quiet stretch the upcall threshold is 4 x 0 + 4: five
    // upcalls in one iteration trip it, four do not.
    for (const std::uint32_t upcalls : {4u, 5u}) {
        sim::ExecContext ctx("pmd-quiet", sim::CpuClass::User);
        ctx.attach_perf("test_obs.perf_quiet");
        obs::PmdPerf& perf = *ctx.perf();
        ASSERT_NO_FATAL_FAILURE(drive_quiet(perf, ctx));
        ASSERT_EQ(perf.suspicious(), 0u);
        perf.begin_iteration();
        for (std::uint32_t u = 0; u < upcalls; ++u) perf.note_upcall();
        perf.end_iteration(1);
        EXPECT_EQ(perf.suspicious(), upcalls >= 5 ? 1u : 0u) << upcalls << " upcalls";
    }
}

TEST(ObsPerf, DisabledRegistryAttachesNoProfiler)
{
    obs::perf_set_enabled(false);
    sim::ExecContext ctx("pmd-off", sim::CpuClass::User);
    ctx.attach_perf("test_obs.perf_off");
    EXPECT_EQ(ctx.perf(), nullptr);
    obs::perf_set_enabled(true);
    EXPECT_TRUE(obs::perf_enabled());
}

// ---- determinism --------------------------------------------------------

TEST(ObsDeterminism, IdenticalSeededRunsProduceIdenticalCoverage)
{
    gen::FuzzConfig cfg;
    cfg.use_malformed = false;

    obs::coverage_reset();
    ASSERT_TRUE(gen::fuzz_run(42, cfg, 60).ok());
    const auto snap1 = obs::coverage_snapshot();

    obs::coverage_reset();
    ASSERT_TRUE(gen::fuzz_run(42, cfg, 60).ok());
    const auto snap2 = obs::coverage_snapshot();

    EXPECT_EQ(snap1, snap2);
    EXPECT_FALSE(snap1.empty());
}

// ---- forced divergence prints per-provider traces -----------------------

TEST(ObsTraceIntegration, ForcedMismatchDumpsPerProviderTrace)
{
    gen::DiffRuleset ruleset;
    gen::DiffRule forward;
    forward.priority = 1;
    forward.mask.bits.in_port = 0xffffffff;
    forward.match.in_port = 1;
    forward.actions.push_back(kern::OdpAction::output(2));
    ruleset.rules.push_back(forward);

    gen::DifferentialHarness harness(ruleset, {.n_ports = 2, .compare_ebpf = false});
    // Mis-translate the kernel datapath's actions: output to the wrong
    // port. Every packet diverges.
    harness.set_fault(gen::DpKind::Kernel, [](kern::OdpActions& actions) {
        for (auto& a : actions) {
            if (a.type == kern::OdpAction::Type::Output) a.port = 1;
        }
    });

    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = 0x0a000001;
    spec.dst_ip = 0x0a000002;
    spec.src_port = 1111;
    spec.dst_port = 2222;
    std::vector<gen::DiffPacket> seq;
    seq.push_back({0, net::build_udp(spec)});

    const gen::DiffReport report = harness.run(seq);
    ASSERT_FALSE(report.ok());
    ASSERT_FALSE(report.unexplained.empty());
    const gen::Divergence& d = report.unexplained.front();
    // The divergence carries the packet's journey through BOTH
    // providers, grouped by domain, and the summary prints it.
    EXPECT_NE(d.trace.find("[netdev]"), std::string::npos) << d.trace;
    EXPECT_NE(d.trace.find("[kernel]"), std::string::npos) << d.trace;
    EXPECT_NE(d.trace.find("nic-rx"), std::string::npos) << d.trace;
    EXPECT_NE(d.trace.find("tx"), std::string::npos) << d.trace;
    EXPECT_NE(report.summary().find("[kernel]"), std::string::npos);
    // The tracer was harness-enabled and restored afterwards.
    EXPECT_FALSE(obs::tracer().enabled());
}

} // namespace
} // namespace ovsx

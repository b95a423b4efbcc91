#include "ovs/dpif_appctl.h"

#include <algorithm>
#include <string>

#include "net/addr.h"
#include "ovs/dpif.h"

namespace ovsx::ovs {

namespace {

obs::Value pmd_stats_show(const Dpif& dpif)
{
    // Instance-local totals: the global emc.hit/megaflow.hit coverage
    // counters aggregate every datapath instance the process ever ran.
    const Dpif::Stats s = dpif.stats();
    obs::Value stats = obs::Value::object();
    stats.set("hits", s.hits);
    stats.set("misses", s.misses);
    stats.set("lost", s.lost);
    obs::Value pmds = obs::Value::array();
    for (const Dpif::PmdRow& pmd : dpif.pmds()) {
        obs::Value row = obs::Value::object();
        row.set("name", pmd.name);
        row.set("rxqs", static_cast<std::uint64_t>(pmd.rxqs.size()));
        for (const char* name : {"emc.hit", "emc.miss", "megaflow.hit", "megaflow.miss"}) {
            row.set(name, pmd.ctx->counter(std::string(name)));
        }
        obs::Value busy = obs::Value::object();
        for (sim::CpuClass c : {sim::CpuClass::User, sim::CpuClass::System,
                                sim::CpuClass::Softirq, sim::CpuClass::Guest}) {
            busy.set(sim::to_string(c), static_cast<std::uint64_t>(pmd.ctx->busy(c)));
        }
        busy.set("total", static_cast<std::uint64_t>(pmd.ctx->total_busy()));
        row.set("busy_ns", std::move(busy));
        pmds.push(std::move(row));
    }
    obs::Value v = obs::Value::object();
    v.set("datapath", dpif.type());
    v.set("stats", std::move(stats));
    v.set("pmds", std::move(pmds));
    return v;
}

obs::Value pmd_rxq_show(const Dpif& dpif)
{
    obs::Value pmds = obs::Value::array();
    for (const Dpif::PmdRow& pmd : dpif.pmds()) {
        if (pmd.rxqs.empty()) continue; // a PMD lists under the rxqs it polls
        obs::Value rxqs = obs::Value::array();
        for (const Dpif::RxqRow& r : pmd.rxqs) {
            obs::Value row = obs::Value::object();
            row.set("port", r.port);
            row.set("queue", static_cast<std::uint64_t>(r.queue));
            row.set("busy_ns", r.busy_ns);
            row.set("busy_pct", r.busy_pct);
            row.set("windows", r.windows);
            rxqs.push(std::move(row));
        }
        obs::Value entry = obs::Value::object();
        entry.set("name", pmd.name);
        entry.set("rxqs", std::move(rxqs));
        pmds.push(std::move(entry));
    }
    obs::Value v = obs::Value::object();
    v.set("datapath", dpif.type());
    v.set("pmds", std::move(pmds));
    return v;
}

obs::Value flow_dump(const Dpif& dpif)
{
    // Sorted, so the dump does not depend on provider table order.
    std::vector<std::string> lines;
    for (const auto& f : dpif.flow_dump()) lines.push_back(f.to_string());
    std::sort(lines.begin(), lines.end());
    obs::Value v = obs::Value::object();
    v.set("flow_count", static_cast<std::uint64_t>(lines.size()));
    obs::Value arr = obs::Value::array();
    for (auto& line : lines) arr.push(obs::Value(std::move(line)));
    v.set("flows", std::move(arr));
    return v;
}

obs::Value xsk_ring_stats(const Dpif& dpif)
{
    obs::Value arr = obs::Value::array();
    for (const Dpif::XskRing& r : dpif.xsk_rings()) {
        obs::Value row = obs::Value::object();
        row.set("dev", r.dev);
        row.set("queue", static_cast<std::uint64_t>(r.queue));
        row.set("rx_size", static_cast<std::uint64_t>(r.rx_size));
        row.set("tx_size", static_cast<std::uint64_t>(r.tx_size));
        row.set("fill_size", static_cast<std::uint64_t>(r.fill_size));
        row.set("comp_size", static_cast<std::uint64_t>(r.comp_size));
        row.set("rx_delivered", r.rx_delivered);
        row.set("rx_dropped_no_frame", r.rx_dropped_no_frame);
        row.set("rx_dropped_ring_full", r.rx_dropped_ring_full);
        row.set("tx_completed", r.tx_completed);
        arr.push(std::move(row));
    }
    obs::Value v = obs::Value::object();
    v.set("rings", std::move(arr));
    return v;
}

// pmd/perf-show (`log` false) and pmd/perf-log (`log` true): one row
// per profiler, the shape of obs::PmdPerf::to_value() / log_value().
obs::Value perf_rows(const Dpif& dpif, bool log)
{
    obs::Value rows = obs::Value::object();
    for (const obs::PmdPerf* perf : dpif.perfs()) {
        rows.set(perf->name(), log ? perf->log_value() : perf->to_value());
    }
    obs::Value v = obs::Value::object();
    v.set("datapath", dpif.type());
    v.set("pmds", std::move(rows));
    return v;
}

} // namespace

obs::Value render_ct_snapshot(const std::vector<kern::CtSnapshotEntry>& entries)
{
    obs::Value v = obs::Value::object();
    v.set("count", static_cast<std::uint64_t>(entries.size()));
    obs::Value arr = obs::Value::array();
    for (const auto& e : entries) {
        obs::Value row = obs::Value::object();
        row.set("src", net::ipv4_to_string(e.orig.src));
        row.set("dst", net::ipv4_to_string(e.orig.dst));
        row.set("sport", static_cast<std::uint64_t>(e.orig.sport));
        row.set("dport", static_cast<std::uint64_t>(e.orig.dport));
        row.set("proto", static_cast<std::uint64_t>(e.orig.proto));
        row.set("zone", static_cast<std::uint64_t>(e.orig.zone));
        row.set("confirmed", e.confirmed);
        row.set("seen_reply", e.seen_reply);
        row.set("mark", static_cast<std::uint64_t>(e.mark));
        // NAT columns are always present; the reply tuple carries the
        // translation.
        row.set("nat", e.nat);
        row.set("reply_src", net::ipv4_to_string(e.reply.src));
        row.set("reply_dst", net::ipv4_to_string(e.reply.dst));
        row.set("reply_sport", static_cast<std::uint64_t>(e.reply.sport));
        row.set("reply_dport", static_cast<std::uint64_t>(e.reply.dport));
        row.set("packets", e.packets);
        arr.push(std::move(row));
    }
    v.set("entries", std::move(arr));
    return v;
}

void register_dpif_commands(obs::Appctl& appctl, Dpif& dpif)
{
    Dpif* d = &dpif;
    appctl.register_command("dpif-netdev/pmd-stats-show", "per-PMD datapath statistics",
                            [d](const obs::Appctl::Args&) { return pmd_stats_show(*d); });
    appctl.register_command("dpif-netdev/pmd-rxq-show",
                            "rxq-to-PMD assignment with windowed busy%",
                            [d](const obs::Appctl::Args&) { return pmd_rxq_show(*d); });
    appctl.register_command("dpif-netdev/pmd-rebalance", "rebalance rxqs across PMDs now",
                            [d](const obs::Appctl::Args&) {
                                const Dpif::Rebalance r = d->rebalance();
                                obs::Value v = obs::Value::object();
                                v.set("datapath", d->type());
                                v.set("rebalanced", r.moved);
                                v.set("detail", r.detail);
                                return v;
                            });
    appctl.register_command("dpctl/dump-flows", "installed datapath flows",
                            [d](const obs::Appctl::Args&) { return flow_dump(*d); });
    appctl.register_command("conntrack/show", "tracked connections",
                            [d](const obs::Appctl::Args&) {
                                return render_ct_snapshot(d->ct_snapshot());
                            });
    appctl.register_command("xsk/ring-stats",
                            "AF_XDP socket ring occupancy and delivery counters",
                            [d](const obs::Appctl::Args&) { return xsk_ring_stats(*d); });
    appctl.register_command("pmd/perf-show",
                            "per-PMD cycle profiler: stage cycles and iteration histograms",
                            [d](const obs::Appctl::Args&) { return perf_rows(*d, false); });
    appctl.register_command("pmd/perf-log",
                            "suspicious-iteration thresholds and flight-recorder dumps",
                            [d](const obs::Appctl::Args&) { return perf_rows(*d, true); });
}

} // namespace ovsx::ovs

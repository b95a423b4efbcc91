// perfbench: wall-clock ledger of the four datapath providers.
//
//   perfbench --workload <p2p-1k|p2p-100k-churn|nsx-conn> --seed N
//             --seconds S --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer ones (spans, key-stream replay, counters and virtual
// cycles). Human-readable lines come first; the last line of stdout is
// one JSON object {"correct","attempted","failed","metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "kern/ovs_kmod.h"
#include "net/tunnel.h"
#include "obs/perf.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args parse_args(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        if (flag == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(val);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(val);
        } else if (flag == "--trace") {
            a.trace = val == "1";
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload || argc % 2 == 0 || a.seconds <= 0) {
        throw std::invalid_argument(
            "usage: perfbench --workload W --seed N --seconds S --trace 0|1");
    }
    return a;
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// CPU time of the calling thread: beside wall time it shows how long the
// host kept the benchmark off the CPU.
double thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- host speed --------------------------------------------------------

// A fixed reference loop timed before and after every chunk of the
// timed phase. Each step does what a datapath
// does per packet in miniature: parse a 64-byte frame, hash its fields,
// look the hash up in a 4,096-slot table and copy the frame out. It runs
// no ovsx code, so only the host moves its time. The shared development
// host has phases, minutes long, in which it runs this loop and the
// datapaths up to 1.9 times slower (see README.md). Every wall time is
// therefore scaled by the host's slowness beside it.
class HostProbe {
public:
    // One pass of the loop on the development host (4 cores at 2 GHz)
    // in its fast phase.
    static constexpr double kRefNs = 11300;
    // Between that host's fast and slow phases the loop's time grew 1.76
    // times and the datapaths' 1.55 to 1.93 times, median 1.66:
    // ln 1.66 / ln 1.76 = 0.9.
    static constexpr double kExponent = 0.9;

    HostProbe() : frames_(kFrames), keys_(kSlots), vals_(kSlots)
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (auto& f : frames_) {
            for (auto& byte : f) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                byte = static_cast<std::uint8_t>(x >> 56);
            }
            // Mostly IPv4 UDP and TCP, some ICMP and IPv6.
            const auto kind = (x >> 40) & 7;
            f[12] = kind < 6 ? 0x08 : 0x86;
            f[13] = kind < 6 ? 0x00 : 0xdd;
            f[23] = kind < 3 ? 17 : kind < 5 ? 6 : 1;
        }
    }

    // Host slowness now, the factor by which wall times are scaled: the
    // fastest of three passes over kRefNs, to the power kExponent.
    double slowness()
    {
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            const std::int64_t t0 = now_ns();
            pass();
            const auto dt = static_cast<double>(now_ns() - t0);
            if (rep == 0 || dt < best) best = dt;
        }
        return std::pow(best / kRefNs, kExponent);
    }

private:
    static constexpr std::size_t kFrames = 256;
    static constexpr std::size_t kSlots = 4096;
    static constexpr int kSteps = 2000;

    void pass()
    {
        for (int i = 0; i < kSteps; ++i) {
            const auto& f = frames_[static_cast<std::size_t>(i) * 37 % kFrames];
            const auto ethertype = static_cast<std::uint16_t>(f[12] << 8 | f[13]);
            std::uint64_t h = ethertype;
            if (ethertype == 0x0800) {
                std::uint32_t src = 0;
                std::uint32_t dst = 0;
                std::memcpy(&src, &f[26], 4);
                std::memcpy(&dst, &f[30], 4);
                h = (src * 0x9e3779b97f4a7c15ULL ^ dst) * 0xff51afd7ed558ccdULL ^ f[23];
                if (f[23] == 6 || f[23] == 17) {
                    h ^= static_cast<std::uint64_t>(f[34] << 8 | f[35]) << 16 | (f[36] << 8 | f[37]);
                }
                if (f[23] == 6) h ^= f[47];
            } else if (ethertype == 0x86dd) {
                std::uint64_t a = 0;
                std::uint64_t b = 0;
                std::memcpy(&a, &f[22], 8);
                std::memcpy(&b, &f[38], 8);
                h = a * 0xc4ceb9fe1a85ec53ULL ^ b;
            }
            h = h * 0x9e3779b97f4a7c15ULL | 1;
            std::size_t slot = h >> 52;
            while (keys_[slot] != h && keys_[slot] != 0) slot = (slot + 1) % kSlots;
            keys_[slot] = h;
            ++vals_[slot];
            std::memcpy(out_.data(), f.data(), out_.size());
            out_[0] ^= static_cast<std::uint8_t>(vals_[slot]);
            sink_ = sink_ + out_[h & 63];
        }
    }

    std::vector<std::array<std::uint8_t, 64>> frames_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> vals_;
    std::array<std::uint8_t, 64> out_{};
    volatile std::uint64_t sink_ = 0;
};

// One provider's leg and what the run learned about it.
struct Run {
    Provider p = Provider::Afxdp;
    std::unique_ptr<Leg> leg;
    std::uint64_t vburst = 0;     // bursts offered so far: the virtual clock
    std::size_t cursor = 0;       // timed bursts offered
    // Burst times and chunk throughputs at the probe's reference speed.
    std::vector<double> burst_us; // untraced timed bursts
    std::vector<double> mpps_chunks;
    std::vector<double> traced_mpps_chunks;
    std::vector<double> slowness; // the probe's, beside each chunk
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t forwarded = 0;
    std::vector<std::uint64_t> got_ports;  // per port index, cumulative
    std::vector<std::uint64_t> want_ports; // the model's, cumulative
    std::size_t timed_span_from = 0; // first span of the timed phase
    std::uint64_t upcalls = 0;
    double timed_wall_s = 0; // the timed phase, checks included
    double timed_cpu_s = 0;
};

// Legs take turns this many bursts at a time.
constexpr std::size_t kTurnBursts = 1024;

class Driver {
public:
    explicit Driver(const Workload& wl) : wl_(wl) {}

    Run make_run(Provider p, std::unique_ptr<Leg> leg) const
    {
        Run r;
        r.p = p;
        r.got_ports.assign(leg->devs.size(), 0);
        r.want_ports.assign(leg->devs.size(), 0);
        r.leg = std::move(leg);
        return r;
    }

    // Offers burst `b` of `s`, waits until all of it left or dropped and
    // checks the outputs. Returns the burst's wall time in ns; sets
    // last_forwarded_.
    std::int64_t burst(Run& r, const Schedule& s, std::size_t b)
    {
        const std::uint32_t lo = s.begin(b);
        const std::uint32_t hi = s.ends[b];
        pkts_.clear();
        in_.clear();
        want_.clear();
        for (std::uint32_t i = lo; i < hi; ++i) {
            std::uint32_t port = 0;
            pkts_.push_back(wl_.frame(s.pkts[i], r.p, &port));
            in_.push_back(port);
            Output o = wl_.expect(s.pkts[i], r.p);
            if (o.port != kNoPort) want_.push_back(std::move(o));
        }

        Leg& leg = *r.leg;
        leg.captured.clear();
        leg.spans.burst = static_cast<std::uint32_t>(r.vburst);
        const std::int64_t t0 = now_ns();
        {
            ScopedSpan span(leg.spans, SpanName::Burst);
            leg.set_now(static_cast<sim::Nanos>(r.vburst + 1) * wl_.step_ns);
            for (std::size_t k = 0; k < pkts_.size(); ++k) leg.offer(in_[k], std::move(pkts_[k]));
            leg.drain();
        }
        const std::int64_t dt = now_ns() - t0;
        ++r.vburst;

        got_.clear();
        for (const auto& [port, pkt] : leg.captured) got_.push_back(normalize(port, pkt));
        leg.captured.clear();
        for (const Output& o : got_) ++r.got_ports[o.port];
        for (const Output& o : want_) ++r.want_ports[o.port];
        std::sort(got_.begin(), got_.end());
        std::sort(want_.begin(), want_.end());
        std::size_t matched = 0;
        for (std::size_t i = 0, j = 0; i < got_.size() && j < want_.size();) {
            if (got_[i] == want_[j]) {
                ++matched;
                ++i;
                ++j;
            } else if (got_[i] < want_[j]) {
                ++i;
            } else {
                ++j;
            }
        }
        r.failed += std::max(got_.size(), want_.size()) - matched;
        r.attempted += hi - lo;
        r.forwarded += got_.size();
        last_forwarded_ = got_.size();
        return dt;
    }

    void warm(Run& r)
    {
        for (std::size_t b = 0; b < wl_.warmup.bursts(); ++b) burst(r, wl_.warmup, b);
    }

    // One fixed-size chunk of the timed schedule, spans on when `traced`;
    // its throughput is forwarded packets over the summed burst time.
    // Throughput and burst times are scaled to the probe's reference
    // speed by the mean of its slowness just before and just after.
    void chunk(Run& r, bool traced)
    {
        const double slow0 = probe_.slowness();
        const std::int64_t wall0 = now_ns();
        const double cpu0 = thread_cpu_s();
        r.leg->spans.on = traced;
        double ns = 0;
        std::uint64_t fwd = 0;
        const std::size_t first = r.burst_us.size();
        for (std::size_t c = 0; c < wl_.chunk_bursts; ++c) {
            const std::int64_t dt = burst(r, wl_.timed, r.cursor);
            ++r.cursor;
            ns += static_cast<double>(dt);
            fwd += last_forwarded_;
            if (!traced) r.burst_us.push_back(static_cast<double>(dt) / 1000.0);
        }
        r.leg->spans.on = false;
        r.timed_wall_s += static_cast<double>(now_ns() - wall0) / 1e9;
        r.timed_cpu_s += thread_cpu_s() - cpu0;
        const double slow = (slow0 + probe_.slowness()) / 2;
        r.slowness.push_back(slow);
        (traced ? r.traced_mpps_chunks : r.mpps_chunks)
            .push_back(ratio(static_cast<double>(fwd) * 1000.0, ns) * slow);
        for (std::size_t b = first; b < r.burst_us.size(); ++b) r.burst_us[b] /= slow;
    }

    // No whole chunk left in the timed schedule. The schedule never
    // wraps: replayed connections or flows would no longer be new.
    bool exhausted(const Run& r) const
    {
        return r.cursor + wl_.chunk_bursts > wl_.timed.bursts();
    }

    // Whole chunks per turn.
    std::size_t turn_chunks() const { return std::max<std::size_t>(1, kTurnBursts / wl_.chunk_bursts); }

private:
    const Workload& wl_;
    HostProbe probe_;
    std::vector<net::Packet> pkts_;
    std::vector<std::uint32_t> in_;
    std::vector<Output> want_, got_;
    std::size_t last_forwarded_ = 0;
};

// ---- metrics -----------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string json_number(double v)
{
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---- determinism guard -------------------------------------------------

constexpr obs::PerfStage kStages[] = {obs::PerfStage::RxPoll,         obs::PerfStage::EmcLookup,
                                      obs::PerfStage::MegaflowLookup, obs::PerfStage::Upcall,
                                      obs::PerfStage::Ct,             obs::PerfStage::Actions,
                                      obs::PerfStage::Tx};

// Raw cumulative counts a leg publishes: profiler stage cycles,
// provider counters and per-port output counts.
std::map<std::string, double> raw_counts(const Run& r)
{
    std::map<std::string, double> c;
    Leg& leg = *r.leg;
    for (const obs::PerfStage s : kStages) {
        double cycles = 0;
        for (const obs::PmdPerf* row : leg.perf_rows()) {
            cycles += static_cast<double>(row->stage_cycles(s));
        }
        c[std::string("cycles.") + obs::to_string(s)] = cycles;
    }
    c["upcalls"] = static_cast<double>(leg.upcalls);
    if (leg.netdev) {
        const sim::ExecContext& ctx = leg.netdev->pmd_ctx(leg.pmd);
        for (const char* name : {"emc.hit", "emc.miss", "megaflow.hit", "megaflow.miss",
                                 "batch.occupancy", "batch.flush"}) {
            c[name] = static_cast<double>(ctx.counter(name));
        }
    }
    if (leg.kdp) {
        c["kmod.hit"] = static_cast<double>(leg.kdp->hits());
        c["kmod.miss"] = static_cast<double>(leg.kdp->misses());
    }
    if (leg.ebpf) {
        c["ebpf.hit"] = static_cast<double>(leg.ebpf->hits());
        c["ebpf.miss"] = static_cast<double>(leg.ebpf->misses());
    }
    for (std::size_t i = 0; i < r.got_ports.size(); ++i) {
        c["port." + std::to_string(i)] = static_cast<double>(r.got_ports[i]);
    }
    return c;
}

// Unit of a per-layer metric that fixed_counts() produces.
const char* count_unit(const std::string& name)
{
    if (name.rfind("sim.cyc_per_pkt.", 0) == 0) return "cycles/pkt";
    if (name.rfind("ovs.upcall.per_kpkt.", 0) == 0) return "1/kpkt";
    if (name.find("hit_ratio") != std::string::npos) return "ratio";
    if (name == "ovs.batch.occupancy") return "pkt/batch";
    return "count"; // masks, flows, conns, rules
}

// A fresh leg runs the warm-up and a fixed prefix of the timed
// schedule; returns the per-layer counts of that prefix (virtual
// cycles per packet, hit ratios, table sizes) plus the raw deltas.
std::map<std::string, double> fixed_counts(const Workload& wl, Driver& driver, Provider p,
                                           std::uint64_t* attempted, std::uint64_t* failed)
{
    Run r = driver.make_run(p, wl.build(p, false));
    driver.warm(r);
    const auto before = raw_counts(r);
    std::uint64_t pkts = 0;
    const std::size_t bursts = std::min(wl.determinism_bursts, wl.timed.bursts());
    for (std::size_t b = 0; b < bursts; ++b) {
        pkts += wl.timed.ends[b] - wl.timed.begin(b);
        driver.burst(r, wl.timed, b);
    }
    const auto after = raw_counts(r);
    *attempted += r.attempted;
    *failed += r.failed;

    std::map<std::string, double> out;
    auto d = [&](const std::string& k) {
        const auto a = after.find(k);
        const auto b = before.find(k);
        return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
    };
    for (const auto& [k, v] : after) out["delta." + k] = d(k);
    const std::string suffix = std::string(".") + provider_name(p);
    const auto n = static_cast<double>(pkts);
    for (const obs::PerfStage s : kStages) {
        out[std::string("sim.cyc_per_pkt.") + obs::to_string(s) + suffix] =
            d(std::string("cycles.") + obs::to_string(s)) / n;
    }
    out["ovs.upcall.per_kpkt" + suffix] = d("upcalls") / n * 1000.0;
    Leg& leg = *r.leg;
    if (p == Provider::Afxdp) {
        out["ovs.emc.hit_ratio"] = ratio(d("emc.hit"), d("emc.hit") + d("emc.miss"));
        out["ovs.megaflow.hit_ratio"] =
            ratio(d("megaflow.hit"), d("megaflow.hit") + d("megaflow.miss"));
        out["ovs.megaflow.masks"] = static_cast<double>(leg.netdev->megaflow().mask_count());
        out["ovs.megaflow.flows"] = static_cast<double>(leg.netdev->megaflow().flow_count());
        out["ovs.batch.occupancy"] = ratio(d("batch.occupancy"), d("batch.flush"));
        out["ct.conns"] = static_cast<double>(leg.netdev->ct().size());
        out["ovs.ofproto.rules"] = static_cast<double>(leg.vswitch->ofproto().rule_count());
    } else if (p == Provider::Kernel) {
        out["kern.kmod.hit_ratio"] = ratio(d("kmod.hit"), d("kmod.hit") + d("kmod.miss"));
        out["kern.kmod.masks"] = static_cast<double>(leg.kdp->mask_count());
    } else if (p == Provider::Ebpf) {
        out["ebpf.flow.hit_ratio"] = ratio(d("ebpf.hit"), d("ebpf.hit") + d("ebpf.miss"));
        out["ebpf.flows"] = static_cast<double>(leg.ebpf->flow_count());
    }
    return out;
}

// ---- per-layer metrics from spans ---------------------------------------

// Self time per packet of the NIC rx and PMD poll spans of the traced
// chunks; mean span time per upcall over every traced upcall (warm-up
// included, since p2p-1k takes its upcalls there); and the throughput
// cost of tracing.
void add_layer_metrics(const Run& r, std::vector<Metric>& m)
{
    const std::string sfx = std::string(".") + provider_name(r.p);
    const SpanLog::Totals timed = r.leg->spans.totals(r.timed_span_from);
    const SpanLog::Totals all = r.leg->spans.totals(0);
    auto idx = [](SpanName n) { return static_cast<int>(n); };
    const auto rx = static_cast<double>(timed.count[idx(SpanName::NicRx)]);
    m.push_back({"kern.nic.rx_ns" + sfx, ratio(timed.self_ns[idx(SpanName::NicRx)], rx), "ns"});
    if (r.leg->netdev) {
        m.push_back({"ovs.pmd.poll_ns" + sfx, ratio(timed.self_ns[idx(SpanName::PmdPoll)], rx), "ns"});
    }
    const auto up = static_cast<double>(all.count[idx(SpanName::Upcall)]);
    m.push_back({"ovs.upcall.ns" + sfx, ratio(all.incl_ns[idx(SpanName::Upcall)], up), "ns"});
    m.push_back({"ovs.ofproto.xlate_ns" + sfx, ratio(all.incl_ns[idx(SpanName::Xlate)], up), "ns"});
    m.push_back({"ovs.dpif.flow_put_ns" + sfx, ratio(all.incl_ns[idx(SpanName::FlowPut)], up), "ns"});
    m.push_back({"ovs.dpif.execute_ns" + sfx, ratio(all.incl_ns[idx(SpanName::Execute)], up), "ns"});
    m.push_back({"obs.trace_overhead_pct" + sfx,
          (ratio(median(r.mpps_chunks), median(r.traced_mpps_chunks)) - 1.0) * 100.0, "%"});
}

// ---- key-stream replay -------------------------------------------------

// Median over five passes of the wall time per call of `fn(i)`, i over
// [0, n).
template <typename Fn> double ns_per_call(std::size_t n, Fn&& fn)
{
    std::vector<double> passes;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < n; ++i) fn(i);
        passes.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
    }
    return median(passes);
}

// Times parse, hash, EMC, megaflow and conntrack on the afxdp leg's live
// tables with the last packets the workload offered it.
void replay(const Workload& wl, Run& r, std::vector<Metric>& m)
{
    Leg& leg = *r.leg;
    constexpr std::size_t kMax = 32768;
    std::vector<net::Packet> pkts;
    std::vector<net::FlowKey> keys;
    std::vector<std::uint64_t> hashes;
    std::vector<kern::CtSpec> specs;
    for (std::size_t back = r.cursor; back > 0 && pkts.size() < kMax; --back) {
        const std::size_t b = back - 1;
        for (std::uint32_t i = wl.timed.begin(b); i < wl.timed.ends[b] && pkts.size() < kMax; ++i) {
            std::uint32_t in = 0;
            net::Packet pkt = wl.frame(wl.timed.pkts[i], r.p, &in);
            pkt.meta().in_port = leg.port_no[in];
            // As dpif-netdev does for frames to its tunnel endpoint.
            if (leg.tunnel_port) {
                if (auto res = net::decapsulate(pkt, net::TunnelType::Geneve)) {
                    pkt.meta().tunnel = res->key;
                    pkt.meta().in_port = leg.tunnel_port;
                }
            }
            specs.push_back(wl.ct_spec(wl.timed.pkts[i]));
            pkts.push_back(std::move(pkt));
        }
    }
    const std::size_t n = pkts.size();
    if (n == 0) throw std::runtime_error("replay: no packets offered");
    for (const auto& pkt : pkts) keys.push_back(net::parse_flow(pkt));
    for (const auto& key : keys) hashes.push_back(key.hash());

    volatile std::uint64_t sink = 0;
    m.push_back({"net.parse_ns", ns_per_call(n, [&](std::size_t i) { sink = sink + net::parse_flow(pkts[i]).nw_dst; }), "ns"});
    m.push_back({"net.hash_ns", ns_per_call(n, [&](std::size_t i) { sink = sink + keys[i].hash(); }), "ns"});
    ovs::Emc& emc = leg.netdev->emc();
    m.push_back({"ovs.emc.lookup_ns", ns_per_call(n, [&](std::size_t i) {
              sink = sink + reinterpret_cast<std::uintptr_t>(emc.lookup(keys[i], hashes[i]));
          }),
          "ns"});
    ovs::MegaflowCache& mf = leg.netdev->megaflow();
    m.push_back({"ovs.megaflow.lookup_ns", ns_per_call(n, [&](std::size_t i) {
              sink = sink + static_cast<std::uint64_t>(mf.lookup(keys[i]).probes);
          }),
          "ns"});
    constexpr std::size_t kBatch = net::PacketBatch::kCapacity;
    const std::size_t batches = n / kBatch;
    if (batches > 0) {
        m.push_back({"ovs.megaflow.lookup_batch_ns",
              ns_per_call(batches,
                          [&](std::size_t bi) {
                              const net::FlowKey* ptrs[kBatch];
                              ovs::MegaflowCache::LookupResult res[kBatch];
                              for (std::size_t k = 0; k < kBatch; ++k) ptrs[k] = &keys[bi * kBatch + k];
                              mf.lookup_batch(ptrs, kBatch, res);
                              sink = sink + static_cast<std::uint64_t>(res[0].probes);
                          }) /
                  static_cast<double>(kBatch),
              "ns"});
    }
    sim::ExecContext ctx("replay", sim::CpuClass::User);
    const sim::Nanos now = static_cast<sim::Nanos>(r.vburst) * wl.step_ns;
    ovs::UserspaceConntrack& ct = leg.netdev->ct();
    m.push_back({"ovs.ct.process_ns", ns_per_call(n, [&](std::size_t i) {
              sink = sink + ct.process(pkts[i], keys[i], specs[i], ctx, now);
          }),
          "ns"});
    std::printf("# replay: %zu keys from the afxdp leg's offered stream\n", n);
}

// ---- the run -----------------------------------------------------------

int run(const Args& args)
{
    const std::int64_t gen_t0 = now_ns();
    const auto wl = make_workload(args.workload, args.seed, args.seconds);
    std::printf("# workload %s seed %llu: warm-up %zu bursts, timed schedule %zu bursts, generated in %.2f s\n",
                wl->name(), static_cast<unsigned long long>(args.seed), wl->warmup.bursts(),
                wl->timed.bursts(), static_cast<double>(now_ns() - gen_t0) / 1e9);

    // Every provider is offered the whole timed schedule (a traced run:
    // trace_chunks untraced and as many traced chunks, alternating), so
    // all do the same work. The legs take turns a group of chunks at a
    // time: each provider's figures then span the whole run, and host
    // phases hit all four alike.
    Driver driver(*wl);
    std::vector<Metric> m;
    std::vector<Run> runs;
    std::vector<double> setup_samples;
    std::vector<double> install_s;
    for (int round = 0; round < wl->setup_rounds; ++round) {
        double total = 0;
        for (const Provider p : kProviders) {
            const std::int64_t t0 = now_ns();
            auto leg = wl->build(p, args.trace);
            total += static_cast<double>(now_ns() - t0) / 1e9;
            for (const Span& s : leg->spans.spans()) {
                if (s.name == SpanName::Install) {
                    install_s.push_back(static_cast<double>(s.end - s.start) / 1e9);
                }
            }
            // Earlier rounds' legs are torn down here, outside the timing.
            if (round + 1 == wl->setup_rounds) runs.push_back(driver.make_run(p, std::move(leg)));
        }
        setup_samples.push_back(total);
    }
    for (Run& r : runs) {
        driver.warm(r);
        r.timed_span_from = r.leg->spans.size();
    }
    if (!args.trace) {
        for (bool more = true; more;) {
            more = false;
            for (Run& r : runs) {
                for (std::size_t c = 0; c < driver.turn_chunks() && !driver.exhausted(r); ++c) {
                    driver.chunk(r, false);
                }
                more = more || !driver.exhausted(r);
            }
        }
    } else {
        for (std::size_t c = 0; c < wl->trace_chunks; ++c) {
            for (Run& r : runs) {
                for (const bool traced : {false, true}) {
                    if (!driver.exhausted(r)) driver.chunk(r, traced);
                }
            }
        }
        for (Run& r : runs) {
            add_layer_metrics(r, m);
            if (r.p == Provider::Afxdp) replay(*wl, r, m);
        }
    }
    for (Run& r : runs) r.upcalls = r.leg->upcalls;

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Set-up time is not scaled by the host's slowness: it moved far less
    // with the host's phases than the reference loop (see README.md).
    if (!args.trace) m.push_back({"setup_s", median(setup_samples), "s"});

    for (const Run& r : runs) {
        attempted += r.attempted;
        failed += r.failed;
        const std::string pn = provider_name(r.p);
        std::printf("# %-6s mpps %.4f (median of %zu chunks; p10 %.4f, p90 %.4f), burst p50 %.2f us "
                    "p99 %.2f us (%zu bursts), host slowness median %.3f (p10 %.3f, p90 %.3f), "
                    "forwarded %llu, failed %llu, upcalls %llu, timed %.2f s wall %.2f s cpu\n",
                    pn.c_str(), median(r.mpps_chunks), r.mpps_chunks.size(),
                    percentile(r.mpps_chunks, 0.1), percentile(r.mpps_chunks, 0.9),
                    percentile(r.burst_us, 0.5), percentile(r.burst_us, 0.99), r.burst_us.size(),
                    median(r.slowness), percentile(r.slowness, 0.1), percentile(r.slowness, 0.9),
                    static_cast<unsigned long long>(r.forwarded),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(r.upcalls), r.timed_wall_s, r.timed_cpu_s);
    }

    // Every provider ran the same packets, so its per-port counts must
    // equal the model's and every other provider's.
    for (const Run& r : runs) {
        if (r.got_ports != r.want_ports || r.got_ports != runs[0].got_ports) {
            std::printf("# per-port counts of %s differ from the model or from %s\n",
                        provider_name(r.p), provider_name(runs[0].p));
            correct = false;
        }
    }

    if (!args.trace) {
        for (const Run& r : runs) {
            m.push_back({std::string("mpps.") + provider_name(r.p), median(r.mpps_chunks), "Mpps"});
        }
        for (const Run& r : runs) {
            m.push_back({std::string("burst_p50_us.") + provider_name(r.p), percentile(r.burst_us, 0.5), "us"});
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        m.push_back({"rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    } else {
        m.push_back({"ruleset.install_s", median(install_s), "s"});

        const std::string dir = ".bench_build/perfbench-spans";
        std::filesystem::create_directories(dir);
        const std::string path = dir + "/" + wl->name() + ".spans";
        std::vector<std::pair<Provider, const SpanLog*>> logs;
        std::size_t total_spans = 0;
        for (const Run& r : runs) {
            logs.emplace_back(r.p, &r.leg->spans);
            total_spans += r.leg->spans.size();
        }
        if (!write_spans(path, logs)) throw std::runtime_error("cannot write " + path);
        std::printf("# wrote %zu spans to %s\n", total_spans, path.c_str());
        // Free the timed legs before the determinism guard builds its own.
        for (Run& r : runs) r.leg.reset();

        // Determinism guard: two fresh legs per provider, same seed, same
        // fixed prefix; every count must repeat exactly.
        bool deterministic = true;
        for (const Provider p : kProviders) {
            const auto first = fixed_counts(*wl, driver, p, &attempted, &failed);
            const auto second = fixed_counts(*wl, driver, p, &attempted, &failed);
            for (const auto& [k, v] : first) {
                const auto it = second.find(k);
                if (it == second.end() || it->second != v) {
                    std::printf("# determinism: %s %s differs between two runs of one seed\n",
                                provider_name(p), k.c_str());
                    deterministic = false;
                }
            }
            for (const auto& [k, v] : first) {
                if (k.rfind("delta.", 0) != 0) m.push_back({k, v, count_unit(k)});
            }
        }
        std::printf("# determinism guard: %s\n", deterministic ? "identical counts" : "MISMATCH");
        correct = correct && deterministic;
    }

    correct = correct && failed == 0;
    std::printf("# fail_frac %.6g (%llu of %llu packets)\n",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& metric : m) {
        if (!first) json += ", ";
        first = false;
        json += "\"" + metric.name + "\": {\"value\": " + json_number(metric.value) +
                ", \"unit\": \"" + metric.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv)
{
    // Keep freed memory in the process rather than handing it back to the
    // kernel, so set-up rounds after the first reuse pages instead of
    // faulting in fresh ones. On a virtual machine the cost of a fresh
    // page swings with the hypervisor's backing: it moved set-up time
    // sixfold between runs of one seed.
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    try {
        return perfbench::run(perfbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

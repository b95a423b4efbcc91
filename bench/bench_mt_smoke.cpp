// Multi-threaded hardened-mode conntrack contention smoke: N worker
// threads commit connections into one shared userspace conntrack, the
// one table the PMDs still share (each PMD owns its EMC and megaflow
// cache), with the lockset/lock-order checkers live
// (san::ScopedHardened). Every shared access goes through the table's
// own shard and zone locks, so a clean run proves the annotated locking
// composes under real contention: any lockset race or ABBA inversion
// aborts the process with the violation report (there is no collector
// installed, deliberately). Doubles as the TSan workload — the tier-1
// suite is mostly single-threaded, so this binary is what gives
// -fsanitize=thread actual interleavings to chew on.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "kern/odp.h"
#include "net/builder.h"
#include "net/flow.h"
#include "ovs/ct.h"
#include "san/report.h"
#include "sim/context.h"

using namespace ovsx;

namespace {

constexpr int kThreads = 4;
constexpr int kItersPerThread = 20000;
constexpr std::uint16_t kFlowsPerThread = 2048;

net::Packet make_udp(std::uint16_t sport, std::uint16_t dport)
{
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(10, 0, 0, 1);
    spec.dst_ip = net::ipv4(10, 0, 0, 2);
    spec.src_port = sport;
    spec.dst_port = dport;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return p;
}

} // namespace

int main(int argc, char** argv)
{
    san::ScopedHardened hardened;

    // Conntrack shard count (default 4: contended but still
    // cross-shard). The TSan CI leg runs 1 and 8: one shard lock shared
    // by every thread, then per-shard locks and the cross-shard commit
    // path.
    const std::uint32_t shards =
        argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 0)) : 4;

    ovs::UserspaceConntrack uct;
    uct.reshard(shards);

    std::atomic<std::uint64_t> ops{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sim::ExecContext ctx{"pmd", sim::CpuClass::User};
            // Per-thread disjoint sport range: threads share the table
            // (that is the point) but not the 5-tuples, so conntrack
            // state stays deterministic per thread.
            const std::uint16_t base = static_cast<std::uint16_t>(10000 + t * kFlowsPerThread);
            std::uint64_t local_ops = 0;
            for (int i = 0; i < kItersPerThread; ++i) {
                const std::uint16_t sport = static_cast<std::uint16_t>(base + i % kFlowsPerThread);
                net::Packet pkt = make_udp(sport, 2000);
                const net::FlowKey key = net::parse_flow(pkt);

                // Commit on the original direction: the first pass over
                // a 5-tuple creates the connection, later ones find it.
                kern::CtSpec spec;
                spec.zone = static_cast<std::uint16_t>(t);
                spec.commit = true;
                uct.process(pkt, key, spec, ctx);
                ++local_ops;
            }
            ops.fetch_add(local_ops, std::memory_order_relaxed);
        });
    }
    for (auto& th : threads) th.join();

    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double mops = static_cast<double>(ops.load()) / secs / 1e6;

    std::printf("bench_mt_smoke: %d threads x %d iters, %u shards\n", kThreads, kItersPerThread,
                shards);
    std::printf("  table ops        %llu\n", static_cast<unsigned long long>(ops.load()));
    std::printf("  wall time        %.3f s\n", secs);
    std::printf("  throughput       %.2f Mops/s\n", mops);
    std::printf("  conntrack conns  %zu\n", uct.size());
    std::printf("  san violations   0 (hardened mode aborts on the first)\n");
    return 0;
}

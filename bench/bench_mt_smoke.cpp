// Multi-threaded hardened-mode smoke: N worker threads hammer the two
// shared tables the PMD scale-out will contend on — the megaflow cache
// and the userspace conntrack — with the lockset/lock-order checkers
// live (san::ScopedHardened). Each thread owns its EMC, as a PMD does,
// and reads the `dead` flags of the shared flows it caches, which the
// megaflow cache's writers set. Every shared access goes through the
// tables' own internal locks, so a clean run proves the annotated
// locking composes under real contention: any lockset race or ABBA
// inversion aborts the process with the violation report (there is no
// collector installed, deliberately). Doubles as the TSan workload —
// the tier-1 suite is mostly single-threaded, so this binary is what
// gives -fsanitize=thread actual interleavings to chew on. The megaflow
// table is big enough (2,048 flows per thread over two masks) that at
// 8 shards every shard's slot tables double several times while the other
// threads hold shard reader locks in lookup() and lookup_batch(); at
// one shard, readers and writers share one reader/writer lock.
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
#include "ovs/emc.h"
#include "ovs/megaflow.h"
#include "san/report.h"
#include "sim/context.h"

using namespace ovsx;

namespace {

constexpr int kThreads = 4;
constexpr int kItersPerThread = 20000;
constexpr std::uint16_t kFlowsPerThread = 2048;
constexpr std::size_t kBurst = 32; // lookup_batch burst, one per kBurst iterations

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

    // Shard count for the megaflow cache and the conntrack (default 4:
    // contended but still cross-shard). The TSan CI leg runs 1 and 8:
    // one shard lock shared by every reader and writer, then per-shard
    // locks, readers that lock a second shard per probe and the
    // cross-shard commit path.
    const std::uint32_t shards =
        argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 0)) : 4;

    ovs::MegaflowCache megaflow(shards);
    // Odd source ports install under a second, sport-keyed mask, so a
    // probe misses one subtable and hits the other.
    net::FlowMask by_sport;
    by_sport.bits.in_port = 0xffffffff;
    by_sport.bits.nw_proto = 0xff;
    by_sport.bits.tp_src = 0xffff;
    by_sport.bits.tp_dst = 0xffff;
    ovs::UserspaceConntrack uct;
    uct.reshard(shards);

    std::atomic<std::uint64_t> ops{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sim::ExecContext ctx{"pmd", sim::CpuClass::User};
            ovs::Emc emc;
            // Per-thread disjoint sport range: threads share the tables
            // (that is the point) but not the 5-tuples, so conntrack
            // state stays deterministic per thread.
            const std::uint16_t base = static_cast<std::uint16_t>(10000 + t * kFlowsPerThread);
            std::vector<net::FlowKey> keys;
            keys.reserve(kFlowsPerThread);
            for (std::uint16_t f = 0; f < kFlowsPerThread; ++f) {
                net::Packet pkt = make_udp(static_cast<std::uint16_t>(base + f), 2000);
                keys.push_back(net::parse_flow(pkt));
            }
            std::uint64_t local_ops = 0;
            for (int i = 0; i < kItersPerThread; ++i) {
                const std::uint16_t sport = static_cast<std::uint16_t>(base + i % kFlowsPerThread);
                net::Packet pkt = make_udp(sport, 2000);
                const net::FlowKey key = net::parse_flow(pkt);
                const std::uint64_t hash = key.hash();

                // Megaflow: install on first touch, then hit.
                ovs::MegaflowCache::LookupResult res = megaflow.lookup(key);
                if (!res.flow) {
                    kern::OdpActions actions;
                    actions.push_back(kern::OdpAction::output(2));
                    const net::FlowMask mask = (sport & 1) ? by_sport : net::FlowMask::exact();
                    ovs::CachedFlowPtr flow = megaflow.insert(key, mask, std::move(actions));
                    emc.insert(key, hash, std::move(flow));
                }

                // Batched classification over the thread's own flows.
                if (i % kBurst == 0) {
                    const net::FlowKey* burst[kBurst];
                    ovs::MegaflowCache::LookupResult out[kBurst];
                    for (std::size_t b = 0; b < kBurst; ++b) {
                        burst[b] = &keys[(static_cast<std::size_t>(i) + b * 61) % kFlowsPerThread];
                    }
                    megaflow.lookup_batch(burst, kBurst, out);
                    for (std::size_t b = 0; b < kBurst; ++b) {
                        const ovs::CachedFlow* f = out[b].flow.get();
                        if (f && !f->mask.same_masked(*burst[b], f->masked_key)) {
                            std::fprintf(stderr, "bench_mt_smoke: lookup_batch returned a "
                                                 "flow that does not match its key\n");
                            std::abort();
                        }
                    }
                    local_ops += kBurst;
                }

                // EMC: miss path re-probes the megaflow like the PMD does.
                if (!emc.lookup(key, hash)) {
                    if (ovs::MegaflowCache::LookupResult r2 = megaflow.lookup(key); r2.flow) {
                        emc.insert(key, hash, r2.flow);
                    }
                }

                // Conntrack: commit on the original direction.
                kern::CtSpec spec;
                spec.zone = static_cast<std::uint16_t>(t);
                spec.commit = true;
                uct.process(pkt, key, spec, ctx);

                local_ops += 3;
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
    std::printf("  megaflow flows   %zu\n", megaflow.flow_count());
    std::printf("  conntrack conns  %zu\n", uct.size());
    std::printf("  san violations   0 (hardened mode aborts on the first)\n");
    return 0;
}

// Concurrency-correctness toolchain tests: the sync primitives
// (capability-annotated mutexes) and the runtime lockset / lock-order
// checkers. Negative tests seed a real race and a real ABBA inversion
// through deterministic single-OS-thread replays (the logical-thread
// override seam), so the checkers must fire identically on every run —
// the determinism test pins that down by diffing two full replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ebpf/map.h"
#include "net/builder.h"
#include "ovs/ct.h"
#include "san/lockset.h"
#include "san/report.h"
#include "sim/context.h"
#include "sync/mutex.h"

namespace ovsx {
namespace {

using net::ipv4;
using san::ScopedCollect;
using san::ScopedHardened;

// A hash map with its own lock ("ebpf.map"), under which every public
// call marks the map for the lockset checker: the locked table of the
// lockset tests.
ebpf::Map locked_table()
{
    return ebpf::Map(ebpf::MapType::Hash, "lockset", sizeof(std::uint32_t),
                     sizeof(std::uint64_t), 1024);
}

// ---- sync::Mutex primitives --------------------------------------------

TEST(SyncMutex, LockGuardExcludesConcurrentMutation)
{
    sync::Mutex mu{"test.counter"};
    std::uint64_t counter = 0;
    std::vector<std::thread> threads;
    constexpr int kThreads = 4;
    constexpr int kIters = 20000;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                sync::LockGuard guard(mu);
                ++counter;
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(SyncMutex, SharedMutexAllowsParallelReaders)
{
    sync::SharedMutex mu{"test.rw"};
    std::atomic<int> inside{0};
    std::atomic<int> max_readers{0};
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            sync::SharedLockGuard guard(mu);
            const int now = inside.fetch_add(1) + 1;
            int seen = max_readers.load();
            while (now > seen && !max_readers.compare_exchange_weak(seen, now)) {
            }
            // Hold the shared lock until every reader is inside (bounded
            // spin, so a regression to exclusive locking fails the EXPECT
            // below instead of hanging the test).
            for (int spin = 0; spin < 200000 && inside.load() < kThreads; ++spin) {
                std::this_thread::yield();
            }
        });
    }
    for (auto& th : threads) th.join();
    // All four readers must have held the shared lock simultaneously.
    EXPECT_EQ(max_readers.load(), kThreads);
}

// ---- lockset: clean paths stay silent ----------------------------------

TEST(Lockset, LockedTableHammeringIsSilent)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    ebpf::Map map = locked_table();
    // Real threads through the locked public API: every access runs
    // under ebpf.map, so the candidate set never empties.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                const auto key = static_cast<std::uint32_t>(t * 1000 + i + 1);
                map.update_kv(key, std::uint64_t{1});
                (void)map.lookup_kv<std::uint64_t>(key);
            }
        });
    }
    for (auto& th : threads) th.join();
    // Worker-thread violations would abort (hardened, no collector on
    // those threads); reaching here plus an empty main-thread collector
    // means the clean path stayed silent.
    EXPECT_TRUE(collect.violations().empty());
    EXPECT_EQ(map.size(), 4u * 200u);
    const auto st = san::lockset::stats();
    EXPECT_GT(st.acquisitions, 0u);
    EXPECT_GT(st.accesses, 0u);
}

TEST(Lockset, MapReadsAreLocksetVisible)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    ebpf::Map map = locked_table();
    map.update_kv(std::uint32_t{1}, std::uint64_t{1});
    // Readers hold the map's lock and mark the map, so a lookup is an
    // access the checker refines like any other.
    const std::uint64_t before = san::lockset::stats().accesses;
    for (std::uint32_t key = 1; key <= 8; ++key) (void)map.lookup_kv<std::uint64_t>(key);
    EXPECT_GE(san::lockset::stats().accesses - before, 8u);
    EXPECT_TRUE(collect.violations().empty());
}

TEST(Lockset, ForgottenObjectStartsOverAtItsAddress)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    sync::Mutex a{"test.forget.a"};
    sync::Mutex b{"test.forget.b"};
    int obj = 0;
    // Two logical threads share obj under a: its candidate set is {a}.
    for (const std::uint32_t tid : {601u, 602u}) {
        san::lockset::ScopedThread t(tid);
        sync::LockGuard g(a);
        OVSX_SAN_ACCESS(obj);
    }
    // The object is destroyed; forgetting works with hardened mode off.
    san::set_hardened(false);
    san::lockset::forget(&obj);
    san::set_hardened(true);
    // A new object at the same address, shared under b only: without
    // the forget, {a} ∩ {b} would be an empty candidate set.
    for (const std::uint32_t tid : {603u, 604u}) {
        san::lockset::ScopedThread t(tid);
        sync::LockGuard g(b);
        OVSX_SAN_ACCESS(obj);
    }
    EXPECT_TRUE(collect.violations().empty());
}

TEST(Lockset, SingleThreadInitializationWithoutLocksIsSilent)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    // One logical thread touching an object without locks is the normal
    // init pattern (Eraser's first-thread grace): no refinement yet.
    san::lockset::ScopedThread t1(101);
    int obj = 0;
    for (int i = 0; i < 4; ++i) OVSX_SAN_ACCESS(obj);
    EXPECT_TRUE(collect.violations().empty());
}

// ---- lockset: seeded negatives must fire -------------------------------

TEST(Lockset, SeededUnguardedMapAccessFiresLocksetRace)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    ebpf::Map map = locked_table();
    {
        // Logical thread 1 uses the locked API (accesses under
        // ebpf.map)...
        san::lockset::ScopedThread t1(201);
        map.update_kv(std::uint32_t{1}, std::uint64_t{1});
        (void)map.lookup_kv<std::uint64_t>(std::uint32_t{1});
    }
    {
        // ...logical thread 2 writes the map holding no lock, as a path
        // that skipped the map's lock would: the candidate set
        // intersects to empty on a write.
        san::lockset::ScopedThread t2(202);
        OVSX_SAN_ACCESS_AT(&map, "ebpf.map", true);
    }
    ASSERT_FALSE(collect.violations().empty());
    const auto& v = collect.violations()[0];
    EXPECT_EQ(v.checker, "lockset-race");
    EXPECT_NE(v.message.find("ebpf.map"), std::string::npos) << v.to_string();
}

TEST(Lockset, SeededRaceOnPlainObjectFires)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    sync::Mutex mu{"test.obj.mu"};
    int obj = 0;
    {
        san::lockset::ScopedThread t1(301);
        sync::LockGuard guard(mu);
        OVSX_SAN_ACCESS(obj);
    }
    {
        san::lockset::ScopedThread t2(302);
        OVSX_SAN_ACCESS(obj); // no lock held: C(obj) -> {} on a write
    }
    ASSERT_EQ(collect.violations().size(), 1u);
    EXPECT_EQ(collect.violations()[0].checker, "lockset-race");
}

TEST(Lockset, RaceReportedOncePerObject)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    int obj = 0;
    {
        san::lockset::ScopedThread t1(401);
        OVSX_SAN_ACCESS(obj);
    }
    {
        san::lockset::ScopedThread t2(402);
        OVSX_SAN_ACCESS(obj);
        OVSX_SAN_ACCESS(obj);
        OVSX_SAN_ACCESS(obj);
    }
    EXPECT_EQ(collect.violations().size(), 1u);
}

TEST(Lockset, SeededAbbaFiresLockOrderInversion)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    sync::Mutex a{"test.order.A"};
    sync::Mutex b{"test.order.B"};
    // Sequential replay of the classic ABBA on one thread: both locks
    // are free at each step so nothing actually deadlocks, but the
    // acquisition DAG still records A->B then B->A and closes a cycle.
    {
        sync::LockGuard ga(a);
        sync::LockGuard gb(b);
    }
    EXPECT_TRUE(collect.violations().empty());
    {
        sync::LockGuard gb(b);
        sync::LockGuard ga(a); // inversion: edge B->A closes the cycle
    }
    ASSERT_FALSE(collect.violations().empty());
    const auto& v = collect.violations()[0];
    EXPECT_EQ(v.checker, "lock-order-inversion");
    EXPECT_NE(v.message.find("test.order.A"), std::string::npos) << v.to_string();
    EXPECT_NE(v.message.find("test.order.B"), std::string::npos) << v.to_string();
}

TEST(Lockset, RecursiveAcquireFires)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    // Feed the acquisition stream directly: actually double-locking a
    // sync::Mutex would deadlock the test for real.
    san::lockset::on_acquire(9001, "test.recursive", true);
    san::lockset::on_acquire(9001, "test.recursive", true);
    san::lockset::on_release(9001);
    san::lockset::on_release(9001);
    ASSERT_FALSE(collect.violations().empty());
    EXPECT_EQ(collect.violations()[0].checker, "recursive-acquire");
}

// ---- determinism: identical replay, identical violations ---------------

std::vector<std::string> run_seeded_scenario()
{
    san::lockset::reset();
    ScopedCollect collect;
    sync::Mutex a{"det.A"};
    sync::Mutex b{"det.B"};
    int obj = 0;
    {
        san::lockset::ScopedThread t1(501);
        sync::LockGuard guard(a);
        OVSX_SAN_ACCESS(obj);
    }
    {
        san::lockset::ScopedThread t2(502);
        OVSX_SAN_ACCESS(obj);
    }
    {
        sync::LockGuard ga(a);
        sync::LockGuard gb(b);
    }
    {
        sync::LockGuard gb(b);
        sync::LockGuard ga(a);
    }
    std::vector<std::string> out;
    for (const auto& v : collect.violations()) out.push_back(v.checker + ": " + v.message);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(Lockset, DeterministicReplayYieldsIdenticalViolations)
{
    ScopedHardened hardened;
    const auto first = run_seeded_scenario();
    const auto second = run_seeded_scenario();
    ASSERT_FALSE(first.empty());
    // Both the race and the inversion, byte-identical across runs.
    EXPECT_EQ(first, second);
    bool has_race = false;
    bool has_inversion = false;
    for (const auto& s : first) {
        if (s.rfind("lockset-race", 0) == 0) has_race = true;
        if (s.rfind("lock-order-inversion", 0) == 0) has_inversion = true;
    }
    EXPECT_TRUE(has_race);
    EXPECT_TRUE(has_inversion);
}

// ---- gating ------------------------------------------------------------

TEST(Lockset, NoTrackingWhenHardenedOff)
{
    san::set_hardened(false);
    san::lockset::reset();
    ScopedCollect collect;
    sync::Mutex mu{"test.off"};
    int obj = 0;
    {
        sync::LockGuard guard(mu);
        OVSX_SAN_ACCESS(obj);
    }
    {
        san::lockset::ScopedThread t2(601);
        OVSX_SAN_ACCESS(obj);
    }
    EXPECT_TRUE(collect.violations().empty());
    const auto st = san::lockset::stats();
    EXPECT_EQ(st.accesses, 0u);
    EXPECT_EQ(st.tracked_objects, 0u);
}

// ---- cross-table: conntrack under the locked API stays silent ----------

TEST(Lockset, ConntrackProcessUnderLockIsSilent)
{
    ScopedHardened hardened;
    san::lockset::reset();
    ScopedCollect collect;
    ovs::UserspaceConntrack ct;
    sim::ExecContext ctx{"pmd", sim::CpuClass::User};
    kern::CtSpec spec;
    spec.zone = 1;
    spec.commit = true;
    for (std::uint16_t i = 1; i <= 8; ++i) {
        net::UdpSpec us;
        us.src_ip = ipv4(10, 0, 0, 1);
        us.dst_ip = ipv4(10, 0, 0, 2);
        us.src_port = i;
        us.dst_port = 53;
        net::Packet pkt = net::build_udp(us);
        const net::FlowKey key = net::parse_flow(pkt);
        ct.process(pkt, key, spec, ctx);
    }
    EXPECT_EQ(ct.size(), 8u);
    EXPECT_TRUE(collect.violations().empty());
}

} // namespace
} // namespace ovsx

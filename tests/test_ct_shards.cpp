// Sharding equivalence and timer-wheel expiry tests, and the megaflow
// cache's at-scale model check.
//
// The scale-out contract: sharding the conntracks by RSS hash is a
// cache-layout choice, never a semantic one. Every conntrack test here
// pins one face of that contract — identical traffic must yield
// bit-identical snapshots/renders at any shard count, the timer wheel
// must expire exactly what a full scan would (releasing NAT ports on
// the way), and the san audit must stay shard-count-invariant, catching
// a leak no matter which shard ate it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "churn_flows.h"
#include "gen/fuzz.h"
#include "kern/conntrack.h"
#include "kern/odp.h"
#include "kern/timer_wheel.h"
#include "net/builder.h"
#include "net/flow.h"
#include "obs/appctl.h"
#include "ovs/ct.h"
#include "ovs/dpif_appctl.h"
#include "ovs/dpif_netdev.h"
#include "ovs/megaflow.h"
#include "san/lockset.h"
#include "san/report.h"
#include "sim/context.h"
#include "sim/rng.h"

namespace ovsx {
namespace {

using net::ipv4;

net::Packet udp_packet(std::uint32_t src, std::uint32_t dst, std::uint16_t sport,
                       std::uint16_t dport)
{
    net::UdpSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return p;
}

// Each tracker's own observable names. The shared table core receives
// them as arguments, so the tests pin which tracker carries which.
template <typename Tracker> struct TrackerNames;
template <> struct TrackerNames<kern::Conntrack> {
    static constexpr const char* table = "kern.ct";
    static constexpr const char* other_table = "ovs.uct";
    static constexpr const char* entry_ledger = "ct.entry";
};
template <> struct TrackerNames<ovs::UserspaceConntrack> {
    static constexpr const char* table = "ovs.uct";
    static constexpr const char* other_table = "kern.ct";
    static constexpr const char* entry_ledger = "uct.entry";
};

// Seeded ct+NAT corpus: a small tuple pool (so replays refile wheel
// nodes), mixed zones/commit/NAT, continuous tick-driven expiry. All
// draws are independent of tracker state, so the identical sequence
// replays against any shard count.
template <typename Tracker>
void drive_corpus(Tracker& ct, std::uint64_t seed, std::size_t ops)
{
    sim::Rng rng(seed);
    sim::ExecContext ctx{"test", sim::CpuClass::User};
    ct.set_idle_timeout(60'000); // 60us: old pool entries churn out
    for (std::size_t i = 0; i < ops; ++i) {
        const std::uint16_t sport = static_cast<std::uint16_t>(1000 + rng.below(48));
        const std::uint32_t dst = ipv4(10, 0, 1, static_cast<std::uint8_t>(1 + rng.below(4)));
        net::Packet pkt = udp_packet(ipv4(10, 0, 0, 1), dst, sport, 53);

        kern::CtSpec spec;
        spec.zone = static_cast<std::uint16_t>(rng.below(2));
        spec.commit = rng.below(4) != 0;
        if (rng.below(3) == 0) {
            spec.nat = kern::NatSpec::src(ipv4(203, 0, 113, 5), 40000, 40063);
        }
        const sim::Nanos now = static_cast<sim::Nanos>(i) * 1000;
        ct.process(pkt, net::parse_flow(pkt), spec, ctx, now);
        ct.tick(now);
    }
}

// ---- timer wheel -------------------------------------------------------

using Wheel = kern::TimerWheel<std::uint64_t>;

TEST(TimerWheel, ExpiresOnlyDueBucketsNeverTheFuture)
{
    Wheel w(10); // ~1us buckets
    w.enqueue(1, 1000);
    w.enqueue(2, 5'000'000); // far future: must not be visited
    const auto st = w.expire(2048, [&](std::uint64_t id, std::uint64_t) {
        EXPECT_EQ(id, 1u);
        return Wheel::Verdict::Expired;
    });
    EXPECT_EQ(st.visited, 1u);
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(w.nodes(), 1u); // the future node stays filed
}

TEST(TimerWheel, TouchRefilesLazilyAndDropsStaleTombstones)
{
    Wheel w(10);
    const auto b0 = w.enqueue(7, 0);
    EXPECT_EQ(w.touch(7, b0, 100), b0); // same quantum: no new node
    EXPECT_EQ(w.nodes(), 1u);
    const auto b2 = w.touch(7, b0, 10'000); // new quantum: tombstone left
    EXPECT_NE(b2, b0);
    EXPECT_EQ(w.nodes(), 2u);

    // Expiring past the old bucket only: the tombstone is dropped as
    // Stale, the refiled node is untouched.
    const auto st = w.expire(5'000, [&](std::uint64_t, std::uint64_t b) {
        EXPECT_EQ(b, b0);
        return Wheel::Verdict::Stale;
    });
    EXPECT_EQ(st.visited, 1u);
    EXPECT_EQ(st.stale, 1u);
    EXPECT_EQ(w.nodes(), 1u);
}

TEST(TimerWheel, BoundaryBucketSurvivorsStayFiled)
{
    Wheel w(10);
    w.enqueue(3, 4500); // lands in the cutoff's own bucket
    const auto st = w.expire(4600, [&](std::uint64_t id, std::uint64_t) {
        EXPECT_EQ(id, 3u);
        return Wheel::Verdict::Keep;
    });
    EXPECT_EQ(st.kept, 1u);
    EXPECT_EQ(w.nodes(), 1u); // refiled, not dropped
}

// ---- shard routing -----------------------------------------------------

TEST(CtSharding, ShardRoutingIsDirectionSymmetric)
{
    sim::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        kern::CtTuple t;
        t.src = static_cast<std::uint32_t>(rng.below(1u << 31));
        t.dst = static_cast<std::uint32_t>(rng.below(1u << 31));
        t.sport = static_cast<std::uint16_t>(rng.below(65536));
        t.dport = static_cast<std::uint16_t>(rng.below(65536));
        t.proto = 17;
        t.zone = static_cast<std::uint16_t>(rng.below(4));
        for (std::uint32_t n : {2u, 4u, 16u, 64u}) {
            EXPECT_EQ(kern::Conntrack::shard_of_tuple(t, n),
                      kern::Conntrack::shard_of_tuple(t.reversed(), n));
        }
    }
}

// ---- snapshot equivalence across shard counts --------------------------

template <typename Tracker> std::vector<kern::CtSnapshotEntry> corpus_snapshot(std::uint32_t shards)
{
    Tracker ct{};
    ct.reshard(shards);
    drive_corpus(ct, 20260808, 3000);
    return ct.snapshot();
}

TEST(CtSharding, KernelSnapshotBitIdenticalAtAnyShardCount)
{
    const auto base = corpus_snapshot<kern::Conntrack>(1);
    EXPECT_FALSE(base.empty());
    EXPECT_EQ(base, corpus_snapshot<kern::Conntrack>(4));
    EXPECT_EQ(base, corpus_snapshot<kern::Conntrack>(16));
}

TEST(CtSharding, UserspaceSnapshotBitIdenticalAtAnyShardCount)
{
    const auto base = corpus_snapshot<ovs::UserspaceConntrack>(1);
    EXPECT_FALSE(base.empty());
    EXPECT_EQ(base, corpus_snapshot<ovs::UserspaceConntrack>(4));
    EXPECT_EQ(base, corpus_snapshot<ovs::UserspaceConntrack>(16));
}

// ---- NAT port release on the wheel expiry path -------------------------

// A one-port SNAT range: connection A takes the only port, idle-expires
// off the timer wheel (which must release the binding), and connection
// B — a different tuple — must then be allocated the same port
// deterministically. This is the regression for the expiry path
// skipping NAT teardown.
template <typename Tracker> void nat_port_reallocated_after_idle_expiry()
{
    Tracker ct{};
    ct.reshard(4);
    sim::ExecContext ctx{"test", sim::CpuClass::User};

    kern::CtSpec spec;
    spec.zone = 1;
    spec.commit = true;
    spec.nat = kern::NatSpec::src(ipv4(203, 0, 113, 7), 41000, 41000);

    net::Packet a = udp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 9), 1111, 80);
    const net::FlowKey key_a = net::parse_flow(a); // process() NAT-rewrites the packet
    ct.process(a, key_a, spec, ctx, 0);
    {
        const auto* e = ct.find(kern::CtTuple::from_key(key_a, 1));
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->reply.dport, 41000);
    }
    ASSERT_EQ(ct.nat_binding_count(), 1u);

    // Idle-expire A off the wheel; the port must come back with it.
    EXPECT_EQ(ct.expire_idle(1'000'000'000), 1u);
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.nat_binding_count(), 0u);

    net::Packet b = udp_packet(ipv4(10, 0, 0, 2), ipv4(10, 0, 0, 9), 2222, 80);
    const net::FlowKey key_b = net::parse_flow(b);
    ct.process(b, key_b, spec, ctx, 2'000'000'000);
    const auto* e = ct.find(kern::CtTuple::from_key(key_b, 1));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->reply.dport, 41000) << "released port not reallocated";
    EXPECT_EQ(ct.nat_binding_count(), 1u);
}

TEST(CtSharding, KernelNatPortReallocatedAfterIdleExpiry)
{
    nat_port_reallocated_after_idle_expiry<kern::Conntrack>();
}

TEST(CtSharding, UserspaceNatPortReallocatedAfterIdleExpiry)
{
    nat_port_reallocated_after_idle_expiry<ovs::UserspaceConntrack>();
}

// tick() is the datapath-clock spelling of the same path: with an idle
// timeout set, a quantum rollover must expire through the wheel.
TEST(CtSharding, TickDrivesWheelExpiry)
{
    kern::Conntrack ct{};
    ct.reshard(4);
    ct.set_idle_timeout(1'000'000); // 1ms
    sim::ExecContext ctx{"test", sim::CpuClass::User};
    kern::CtSpec spec;
    spec.commit = true;
    for (std::uint16_t i = 0; i < 8; ++i) {
        net::Packet p = udp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 2, 1), 3000 + i, 53);
        ct.process(p, net::parse_flow(p), spec, ctx, 0);
    }
    ASSERT_EQ(ct.size(), 8u);
    ct.tick(10'000'000); // 10ms later: everything is idle-expired
    EXPECT_EQ(ct.size(), 0u);
    // Bounded tick contract: the pass visited the 8 wheel nodes, not
    // "the whole table" (trivially equal here, but the counter flows).
    EXPECT_GE(ct.last_expire_visited(), 8u);
}

// ---- rendered dumps: per-shard snapshot + merge, shape unchanged -------

struct Dumps {
    std::string ct;     // conntrack/show
    std::string memory; // memory/show
    std::string shards; // shards/show (occupancy differs by shard count)
};

// conntrack/show and memory/show render from per-shard snapshots
// merged outside the locks; the rendered text must be byte-identical
// at any shard count.
template <typename Tracker> Dumps rendered_dumps(std::uint32_t shards)
{
    Tracker ct{};
    ct.reshard(shards);
    drive_corpus(ct, 99, 800);
    return {ovs::render_ct_snapshot(ct.snapshot()).to_json(), obs::memory_show().to_json(),
            obs::shards_show().to_json()};
}

// memory/show and shards/show name the tracker's own table, never the
// other tracker's.
template <typename Tracker> void expect_own_table_name(const Dumps& d)
{
    using Names = TrackerNames<Tracker>;
    for (const std::string* doc : {&d.memory, &d.shards}) {
        EXPECT_NE(doc->find(Names::table), std::string::npos) << *doc;
        EXPECT_EQ(doc->find(Names::other_table), std::string::npos) << *doc;
    }
}

TEST(CtSharding, RenderedShowOutputsIdenticalAcrossShardCounts)
{
    // Scoped sequentially: one tracker registers with obs at a time,
    // so the memory/show document has one deterministic table name.
    const auto kern1 = rendered_dumps<kern::Conntrack>(1);
    const auto kern4 = rendered_dumps<kern::Conntrack>(4);
    EXPECT_EQ(kern1.ct, kern4.ct) << "conntrack/show shape changed with sharding";
    EXPECT_EQ(kern1.memory, kern4.memory) << "memory/show shape changed with sharding";
    expect_own_table_name<kern::Conntrack>(kern1);
    expect_own_table_name<kern::Conntrack>(kern4);

    const auto uct1 = rendered_dumps<ovs::UserspaceConntrack>(1);
    const auto uct4 = rendered_dumps<ovs::UserspaceConntrack>(4);
    EXPECT_EQ(uct1.ct, uct4.ct);
    EXPECT_EQ(uct1.memory, uct4.memory);
    expect_own_table_name<ovs::UserspaceConntrack>(uct1);
    expect_own_table_name<ovs::UserspaceConntrack>(uct4);
}

// ---- zone limits under concurrent creates ------------------------------

// Four threads open distinct UDP connections into one zone at once, on
// a table sharded so that they mostly hold different shard locks. The
// zone-limit check and the count it guards must be one step: a check
// that drops the zone lock before counting lets two creators both pass
// at limit - 1, and the zone ends over its limit. The lockset checker
// (hardened builds) keys shared state by address, so its state is
// reset around each round: a fresh tracker may reuse a freed one's.
template <typename Tracker> void zone_limit_holds_under_concurrent_creates()
{
    constexpr std::size_t kLimit = 16;
    constexpr int kThreads = 4;
    constexpr std::uint16_t kConnsPerThread = 4000;
    for (int round = 0; round < 10; ++round) {
        san::lockset::reset();
        Tracker ct{};
        ct.reshard(8);
        ct.set_zone_limit(1, kLimit);
        std::atomic<bool> go{false};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&ct, &go, t] {
                sim::ExecContext ctx{"pmd", sim::CpuClass::User};
                kern::CtSpec spec;
                spec.zone = 1;
                spec.commit = true;
                while (!go.load()) std::this_thread::yield();
                for (std::uint16_t i = 0; i < kConnsPerThread; ++i) {
                    net::Packet p = udp_packet(ipv4(10, 1, static_cast<std::uint8_t>(t), 1),
                                               ipv4(10, 2, 0, 1),
                                               static_cast<std::uint16_t>(1024 + i), 53);
                    ct.process(p, net::parse_flow(p), spec, ctx, 0);
                }
            });
        }
        go.store(true);
        for (auto& th : threads) th.join();
        ASSERT_EQ(ct.size(), kLimit) << "round " << round;
        ASSERT_EQ(ct.zone_count(1), kLimit) << "round " << round;
    }
    san::lockset::reset();
}

TEST(CtSharding, ZoneLimitHoldsUnderConcurrentCreates)
{
    zone_limit_holds_under_concurrent_creates<kern::Conntrack>();
    zone_limit_holds_under_concurrent_creates<ovs::UserspaceConntrack>();
}

// ---- san audit: shard-count-invariant totals, leaks caught -------------

template <typename Tracker> void leaked_entry_is_caught(std::uint32_t shards)
{
    san::ScopedHardened hardened;
    san::ScopedCollect collect;
    Tracker ct{};
    ct.reshard(shards);
    sim::ExecContext ctx{"test", sim::CpuClass::User};
    kern::CtSpec spec;
    spec.commit = true;
    std::vector<net::FlowKey> keys;
    for (std::uint16_t i = 0; i < 12; ++i) {
        net::Packet p = udp_packet(ipv4(10, 0, 0, 3), ipv4(10, 0, 4, 1), 5000 + i, 53);
        keys.push_back(net::parse_flow(p));
        ct.process(p, keys.back(), spec, ctx, 0);
    }
    ct.san_check(OVSX_SITE);
    EXPECT_TRUE(collect.violations().empty()) << "clean table flagged";

    // Leak an entry out of whatever shard owns it: the ledgers still
    // claim it, so the next audit must flag the mismatch.
    ASSERT_TRUE(ct.test_seam_leak_entry(kern::CtTuple::from_key(keys[7], 0)));
    ct.san_check(OVSX_SITE);
    bool flagged = false;
    const std::string ledger = std::string(TrackerNames<Tracker>::entry_ledger) + " (";
    for (const auto& v : collect.violations()) {
        if (v.checker != "audit-size-mismatch") continue;
        flagged = true;
        EXPECT_EQ(v.message.rfind(ledger, 0), 0u) << "not the tracker's own ledger: " << v.message;
    }
    EXPECT_TRUE(flagged) << "leaked entry in shard escaped san_check at " << shards << " shards";
    (void)collect.take(); // teardown with the drifted ledger re-fires
}

TEST(CtShardSan, KernelLeakCaughtAtAnyShardCount)
{
    leaked_entry_is_caught<kern::Conntrack>(1);
    leaked_entry_is_caught<kern::Conntrack>(4);
    leaked_entry_is_caught<kern::Conntrack>(16);
}

TEST(CtShardSan, UserspaceLeakCaughtAtAnyShardCount)
{
    leaked_entry_is_caught<ovs::UserspaceConntrack>(1);
    leaked_entry_is_caught<ovs::UserspaceConntrack>(4);
}

// ---- conntrack table: both trackers against a reference model --------

// Reference model of the connection table and the state machine both
// trackers run over it, as a plain two-map table: the connections by
// id, and one std::map from tuple to id. A new connection indexes its
// reply tuple only if no connection holds it yet (an indexed tuple
// keeps its first connection), an erase drops both of its tuples by
// key, whichever connection holds them, and a reshard re-indexes every
// connection in id order.
class CtTableModel {
public:
    struct Conn {
        kern::CtTuple orig;
        kern::CtTuple reply;
        bool confirmed = false;
        bool seen_reply = false;
        std::uint32_t mark = 0;
        std::optional<kern::NatBinding> nat;
        std::uint64_t packets = 0;
        sim::Nanos last_seen = 0;
    };

    // How often each path ran, so a run can show it covered them all.
    struct Paths {
        std::size_t related = 0;
        std::size_t teardown = 0;    // RST on a tracked connection
        std::size_t zone_full = 0;
        std::size_t exhausted = 0;   // NAT port range exhausted
        std::size_t reply_taken = 0; // reply tuple already indexed
        std::size_t expired = 0;
    };

    void set_zone_limit(std::uint16_t zone, std::size_t limit) { zone_limits_[zone] = limit; }
    void set_idle_timeout(sim::Nanos timeout) { idle_timeout_ = timeout; }
    const Paths& paths() const { return paths_; }

    // The CS_* bits process() writes for a packet whose lookup tuple is
    // `tuple` (the cited inner tuple of an ICMP error).
    std::uint8_t process(const kern::CtTuple& tuple, bool icmp_error, bool rst,
                         const kern::CtSpec& spec, sim::Nanos now)
    {
        constexpr std::uint8_t kInvalid = net::kCtStateTracked | net::kCtStateInvalid;
        const auto hit = index_.find(tuple);
        if (icmp_error) {
            if (hit == index_.end()) return kInvalid;
            ++paths_.related;
            return net::kCtStateTracked | net::kCtStateRelated;
        }
        if (hit != index_.end()) {
            const std::uint64_t id = hit->second;
            Conn& c = conns_.at(id);
            std::uint8_t state = net::kCtStateTracked;
            if (tuple == c.reply && !(c.reply == c.orig)) {
                c.seen_reply = true;
                state |= net::kCtStateReply;
            }
            state |= c.confirmed ? net::kCtStateEstablished : net::kCtStateNew;
            if (spec.commit) c.confirmed = true;
            if (spec.commit && spec.set_mark) c.mark = spec.mark;
            ++c.packets;
            c.last_seen = now;
            if (rst) {
                ++paths_.teardown;
                erase(id);
            }
            return state;
        }
        if (rst) return kInvalid;
        std::size_t& count = zone_counts_[spec.zone];
        const auto lim = zone_limits_.find(spec.zone);
        if (lim != zone_limits_.end() && lim->second != 0 && count >= lim->second) {
            ++paths_.zone_full;
            return kInvalid;
        }
        Conn c;
        c.orig = tuple;
        c.reply = tuple.reversed();
        c.confirmed = spec.commit;
        if (spec.commit && spec.set_mark) c.mark = spec.mark;
        c.packets = 1;
        c.last_seen = now;
        if (spec.nat.enabled && spec.commit) {
            kern::NatBinding nat{spec.nat.snat, spec.nat.ip, 0};
            if (spec.nat.port_min != 0) {
                for (std::uint32_t p = spec.nat.port_min;
                     p <= std::max(spec.nat.port_max, spec.nat.port_min); ++p) {
                    const auto port = static_cast<std::uint16_t>(p);
                    if (!index_.contains(kern::nat_reply_tuple(tuple, spec.nat, port))) {
                        nat.port = port;
                        break;
                    }
                }
                if (nat.port == 0) {
                    ++paths_.exhausted;
                    return kInvalid;
                }
            }
            c.nat = nat;
            c.reply = kern::nat_reply_tuple(tuple, spec.nat, nat.port);
        }
        ++count;
        const std::uint64_t id = next_id_++;
        index_.emplace(c.orig, id);
        if (!(c.reply == c.orig) && !index_.emplace(c.reply, id).second) ++paths_.reply_taken;
        conns_.emplace(id, c);
        return net::kCtStateTracked | net::kCtStateNew;
    }

    bool set_mark(const kern::CtTuple& tuple, std::uint32_t mark)
    {
        const auto hit = index_.find(tuple);
        if (hit == index_.end()) return false;
        conns_.at(hit->second).mark = mark;
        return true;
    }

    // CtTable::tick: at most one pass per wheel quantum, which expires
    // every connection idle since before the cutoff.
    void tick(sim::Nanos now)
    {
        const std::uint64_t bucket = static_cast<std::uint64_t>(now) >> Wheel::kDefaultTickShift;
        if (bucket == last_tick_bucket_) return;
        last_tick_bucket_ = bucket;
        if (idle_timeout_ == 0 || now < idle_timeout_) return;
        std::vector<std::uint64_t> idle;
        for (const auto& [id, c] : conns_) {
            if (c.last_seen < now - idle_timeout_) idle.push_back(id);
        }
        for (const std::uint64_t id : idle) erase(id);
        paths_.expired += idle.size();
    }

    void reshard()
    {
        index_.clear();
        for (const auto& [id, c] : conns_) {
            index_.emplace(c.orig, id);
            if (!(c.reply == c.orig)) index_.emplace(c.reply, id);
        }
    }

    const Conn* find(const kern::CtTuple& tuple) const
    {
        const auto hit = index_.find(tuple);
        return hit == index_.end() ? nullptr : &conns_.at(hit->second);
    }

    std::vector<kern::CtSnapshotEntry> snapshot() const
    {
        std::vector<kern::CtSnapshotEntry> out;
        for (const auto& [id, c] : conns_) {
            out.push_back({c.orig, c.reply, c.confirmed, c.seen_reply, c.nat.has_value(), c.mark,
                           c.packets});
        }
        return out;
    }

    std::size_t connections() const { return conns_.size(); }
    std::size_t index_entries() const { return index_.size(); }
    std::size_t nat_bindings() const
    {
        return static_cast<std::size_t>(std::count_if(
            conns_.begin(), conns_.end(), [](const auto& kv) { return kv.second.nat.has_value(); }));
    }
    std::size_t zone_count(std::uint16_t zone) const
    {
        const auto it = zone_counts_.find(zone);
        return it == zone_counts_.end() ? 0 : it->second;
    }
    // A connection's tuples, for the traffic generator.
    std::vector<const Conn*> live() const
    {
        std::vector<const Conn*> out;
        for (const auto& [id, c] : conns_) out.push_back(&c);
        return out;
    }

private:
    void erase(std::uint64_t id)
    {
        const Conn& c = conns_.at(id);
        index_.erase(c.orig);
        index_.erase(c.reply);
        std::size_t& count = zone_counts_[c.orig.zone];
        if (count > 0) --count;
        conns_.erase(id);
    }

    std::map<std::uint64_t, Conn> conns_;
    std::map<kern::CtTuple, std::uint64_t> index_;
    std::map<std::uint16_t, std::size_t> zone_counts_;
    std::map<std::uint16_t, std::size_t> zone_limits_;
    std::uint64_t next_id_ = 1;
    sim::Nanos idle_timeout_ = 0;
    std::uint64_t last_tick_bucket_ = ~std::uint64_t{0};
    Paths paths_;
};

net::Packet ct_model_packet(const kern::CtTuple& t, std::uint8_t tcp_flags)
{
    if (t.proto == 6) {
        net::TcpSpec spec;
        spec.src_ip = t.src;
        spec.dst_ip = t.dst;
        spec.src_port = t.sport;
        spec.dst_port = t.dport;
        spec.flags = tcp_flags;
        net::Packet p = net::build_tcp(spec);
        p.meta().in_port = 1;
        return p;
    }
    return udp_packet(t.src, t.dst, t.sport, t.dport);
}

// An ICMP port-unreachable from the cited packet's destination, citing
// a packet of tuple `t`.
net::Packet ct_model_icmp_error(const kern::CtTuple& t)
{
    net::IcmpSpec err;
    err.src_ip = t.dst;
    err.dst_ip = t.src;
    err.type = 3;
    err.code = 3;
    net::Packet p = net::build_icmp_error(err, ct_model_packet(t, net::kTcpSyn));
    p.meta().in_port = 1;
    return p;
}

// Drives `steps` seeded operations through a tracker at `shards` shards
// and through the model, and compares them after every step: the state
// bits, find() for every tuple seen so far, snapshot(), the memory/show
// counts, size, NAT bindings and zone counts. The traffic is a small
// universe (three hosts, three ports, TCP and UDP, two zones), so tuples
// recur: new connections, replies, repeats with commit and mark, RSTs,
// ICMP errors citing seen tuples, SNAT and DNAT with and without port
// ranges (one- and two-port ranges, which exhaust), table set_mark,
// tick expiry, a zone limit, and a reshard halfway. A scripted prefix
// first makes a NAT reply tuple that an earlier connection already
// indexes, then tears the later connection down, which drops the
// earlier one's slot.
template <typename Tracker>
void ct_table_matches_model(std::uint32_t shards, std::uint64_t seed, std::size_t steps)
{
    Tracker ct{};
    ct.reshard(shards);
    CtTableModel model;
    constexpr sim::Nanos kIdle = 2'000'000;
    ct.set_idle_timeout(kIdle);
    model.set_idle_timeout(kIdle);
    ct.set_zone_limit(1, 12);
    model.set_zone_limit(1, 12);
    sim::ExecContext ctx{"test", sim::CpuClass::User};
    sim::Rng rng(seed);

    const std::uint32_t hosts[] = {ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), ipv4(10, 0, 1, 1)};
    const std::uint16_t ports[] = {1000, 1001, 80};
    const std::uint32_t nat_ips[] = {ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), ipv4(203, 0, 113, 9)};
    std::set<kern::CtTuple> seen;
    sim::Nanos now = 0;
    std::string where;

    auto check = [&] {
        for (const kern::CtTuple& t : seen) {
            const kern::CtEntry* got = ct.find(t);
            const CtTableModel::Conn* want = model.find(t);
            ASSERT_EQ(got != nullptr, want != nullptr) << where << " find " << t.to_string();
            if (!got) continue;
            ASSERT_EQ(got->orig, want->orig) << where << " find " << t.to_string();
            ASSERT_EQ(got->reply, want->reply) << where << " find " << t.to_string();
            ASSERT_EQ(got->confirmed, want->confirmed) << where;
            ASSERT_EQ(got->seen_reply, want->seen_reply) << where;
            ASSERT_EQ(got->mark, want->mark) << where;
            ASSERT_EQ(got->packets, want->packets) << where;
            ASSERT_EQ(got->nat.has_value(), want->nat.has_value()) << where;
            if (got->nat) {
                ASSERT_EQ(got->nat->snat, want->nat->snat) << where;
                ASSERT_EQ(got->nat->ip, want->nat->ip) << where;
                ASSERT_EQ(got->nat->port, want->nat->port) << where;
            }
        }
        // Connections that share an orig tuple may list in either order.
        auto canonical = [](std::vector<kern::CtSnapshotEntry> v) {
            std::vector<std::string> out;
            for (const auto& e : v) out.push_back(e.to_string());
            std::sort(out.begin(), out.end());
            return out;
        };
        ASSERT_EQ(canonical(ct.snapshot()), canonical(model.snapshot())) << where;
        const obs::Value mem = obs::memory_show();
        const obs::Value* table = mem.find(TrackerNames<Tracker>::table);
        ASSERT_NE(table, nullptr);
        ASSERT_EQ(table->find("connections")->as_uint(), model.connections()) << where;
        ASSERT_EQ(table->find("index_entries")->as_uint(), model.index_entries()) << where;
        ASSERT_EQ(table->find("nat_bindings")->as_uint(), model.nat_bindings()) << where;
        ASSERT_EQ(ct.size(), model.connections()) << where;
        ASSERT_EQ(ct.nat_binding_count(), model.nat_bindings()) << where;
        ASSERT_EQ(ct.zone_count(0), model.zone_count(0)) << where;
        ASSERT_EQ(ct.zone_count(1), model.zone_count(1)) << where;
    };
    // One packet through both, tracker first; the lookup tuple is the
    // packet's own, or the cited one for an ICMP error.
    auto send = [&](const kern::CtTuple& t, bool icmp_error, std::uint8_t flags,
                    const kern::CtSpec& spec) {
        net::Packet pkt = icmp_error ? ct_model_icmp_error(t) : ct_model_packet(t, flags);
        const net::FlowKey key = net::parse_flow(pkt);
        ct.process(pkt, key, spec, ctx, now);
        const bool rst = !icmp_error && t.proto == 6 && (flags & net::kTcpRst) != 0;
        const std::uint8_t want = model.process(t, icmp_error, rst, spec, now);
        ASSERT_EQ(pkt.meta().ct_state, want) << where << " " << t.to_string();
        seen.insert(t);
        if (const auto* c = model.find(t)) {
            seen.insert(c->orig);
            seen.insert(c->reply);
        }
    };
    auto tuple = [&](std::uint32_t src, std::uint32_t dst, std::uint16_t sport,
                     std::uint16_t dport, std::uint8_t proto, std::uint16_t zone) {
        return kern::CtTuple{src, dst, sport, dport, proto, zone};
    };

    // Scripted: A = server 10.0.1.1:80 -> client 10.0.0.1:1000. B, from
    // 10.0.0.2:1000 to the server, SNATs to 10.0.0.1 with no port range,
    // so B's reply tuple is A's orig: A keeps it. B's RST then erases
    // both of B's tuples by key, A's slot with them, and C opens on A's
    // orig tuple beside A.
    kern::CtSpec commit;
    commit.commit = true;
    kern::CtSpec snat = commit;
    snat.nat = kern::NatSpec::src(hosts[0], 0, 0);
    const kern::CtTuple a = tuple(hosts[2], hosts[0], 80, 1000, 6, 0);
    const kern::CtTuple b = tuple(hosts[1], hosts[2], 1000, 80, 6, 0);
    where = "script A";
    send(a, false, net::kTcpSyn, commit);
    check();
    where = "script B";
    send(b, false, net::kTcpSyn, snat);
    ASSERT_EQ(model.find(a)->orig, a); // A keeps the tuple B's reply repeats
    check();
    where = "script B reply";
    send(a, false, net::kTcpAck, kern::CtSpec{}); // A's orig direction again
    check();
    where = "script B RST";
    send(b, false, net::kTcpRst, kern::CtSpec{});
    ASSERT_EQ(model.find(a), nullptr); // erased by key with B
    check();
    where = "script C";
    send(a, false, net::kTcpSyn, commit);
    ASSERT_EQ(model.connections(), 2u); // A and C share an orig tuple
    check();

    const std::uint32_t mid_shards = shards == 1 ? 8 : shards / 4;
    for (std::size_t step = 0; step < steps; ++step) {
        where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
        now += static_cast<sim::Nanos>(rng.below(40'000));
        if (step == steps / 2) {
            ct.reshard(mid_shards);
            model.reshard();
        }
        kern::CtSpec spec;
        spec.zone = static_cast<std::uint16_t>(rng.below(2));
        spec.commit = rng.below(4) != 0;
        if (rng.below(4) == 0) {
            spec.set_mark = true;
            spec.mark = static_cast<std::uint32_t>(1 + rng.below(1000));
        }
        if (rng.below(3) == 0) {
            const std::uint32_t ip = nat_ips[rng.below(3)];
            std::uint16_t lo = 0, hi = 0;
            if (rng.below(2) == 0) {
                lo = rng.below(2) == 0 ? 1000 : 40000;
                hi = static_cast<std::uint16_t>(lo + rng.below(2));
            }
            spec.nat = rng.below(2) == 0 ? kern::NatSpec::src(ip, lo, hi)
                                         : kern::NatSpec::dst(ip, lo, hi);
        }
        const std::uint8_t flags = rng.below(8) == 0 ? net::kTcpRst : net::kTcpAck;
        const auto live = model.live();
        const std::uint64_t op = rng.below(100);
        if (op < 40 || live.empty()) {
            // A packet anywhere in the universe: new or already tracked.
            const std::size_t s = rng.below(3);
            const std::size_t d = (s + 1 + rng.below(2)) % 3;
            const kern::CtTuple t =
                tuple(hosts[s], hosts[d], ports[rng.below(3)], ports[rng.below(3)],
                      rng.below(2) == 0 ? 6 : 17, spec.zone);
            send(t, false, flags, spec);
        } else if (op < 85) {
            // A tracked connection's reply (the NAT-translated tuple) or
            // orig direction.
            const CtTableModel::Conn* c = live[rng.below(live.size())];
            const kern::CtTuple t = op < 65 ? c->reply : c->orig;
            spec.zone = t.zone;
            send(t, false, flags, spec);
        } else if (op < 93) {
            // An ICMP error citing a seen tuple (tracked or not).
            auto it = seen.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(rng.below(seen.size())));
            spec.zone = it->zone;
            send(*it, true, 0, spec);
        } else {
            auto it = seen.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(rng.below(seen.size())));
            const auto mark = static_cast<std::uint32_t>(rng.below(1000));
            ASSERT_EQ(ct.set_mark(*it, mark), model.set_mark(*it, mark)) << where;
        }
        ct.tick(now);
        model.tick(now);
        check();
    }
    const CtTableModel::Paths& paths = model.paths();
    EXPECT_GT(paths.related, 0u);
    EXPECT_GT(paths.teardown, 0u);
    EXPECT_GT(paths.zone_full, 0u);
    EXPECT_GT(paths.exhausted, 0u);
    EXPECT_GT(paths.reply_taken, 1u); // the script's, and the generator's
    EXPECT_GT(paths.expired, 0u);
}

template <typename Tracker> void ct_table_matches_model_at_every_shard_count()
{
    for (const std::uint32_t shards : {1u, 4u, 16u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ct_table_matches_model<Tracker>(shards, 20261020 + shards, 1500);
    }
}

TEST(CtTableModel, KernelTrackerMatchesTheModel)
{
    ct_table_matches_model_at_every_shard_count<kern::Conntrack>();
}

TEST(CtTableModel, UserspaceTrackerMatchesTheModel)
{
    ct_table_matches_model_at_every_shard_count<ovs::UserspaceConntrack>();
}

// ---- megaflow: the cache against a reference model ---------------------

// Reference model of the megaflow cache, independent of the key hash:
// per mask a map from the masked key's bytes to the live flow, and the
// probe order the cache documents — masks in first-insert order, and on
// rerank a stable sort by hits since the last rerank with empty
// subtables dropped. A lookup scans the masks in that order.
class MegaflowModel {
public:
    struct Hit {
        int port = -1;
        int probes = 0;
        std::size_t mask = 0;
        net::FlowKey image;
    };

    explicit MegaflowModel(std::vector<net::FlowMask> masks)
        : masks_(std::move(masks)), tables_(masks_.size()), hits_(masks_.size(), 0)
    {
    }

    void insert(std::size_t m, const net::FlowKey& key, std::uint32_t port)
    {
        if (std::find(order_.begin(), order_.end(), m) == order_.end()) order_.push_back(m);
        tables_[m][masks_[m].apply(key)] = Flow{port}; // a re-install is a fresh flow
    }

    // `count`: a lookup() (hit counts feed rerank), not a lookup_batch().
    Hit lookup(const net::FlowKey& key, bool count)
    {
        Hit h;
        for (const std::size_t m : order_) {
            ++h.probes;
            const net::FlowKey img = masks_[m].apply(key);
            const auto it = tables_[m].find(img);
            if (it == tables_[m].end()) continue;
            if (count) ++hits_[m];
            h.port = static_cast<int>(it->second.port);
            h.mask = m;
            h.image = img;
            return h;
        }
        return h;
    }

    void bump(const Hit& h) { ++tables_[h.mask].at(h.image).hits; }

    void rerank()
    {
        std::stable_sort(order_.begin(), order_.end(),
                         [&](std::size_t a, std::size_t b) { return hits_[a] > hits_[b]; });
        std::erase_if(order_, [&](std::size_t m) { return tables_[m].empty(); });
        std::fill(hits_.begin(), hits_.end(), 0);
    }

    std::size_t expire_idle()
    {
        std::size_t removed = 0;
        for (auto& table : tables_) {
            for (auto it = table.begin(); it != table.end();) {
                Flow& f = it->second;
                if (f.hits == f.swept) {
                    it = table.erase(it);
                    ++removed;
                } else {
                    f.swept = f.hits; // grace consumed
                    ++it;
                }
            }
        }
        return removed;
    }

    bool remove(std::size_t m, const net::FlowKey& key)
    {
        return tables_[m].erase(masks_[m].apply(key)) > 0;
    }

    std::size_t flow_count() const
    {
        std::size_t n = 0;
        for (const auto& table : tables_) n += table.size();
        return n;
    }
    std::size_t mask_count() const { return order_.size(); }

private:
    struct Flow {
        std::uint32_t port = 0;
        std::uint64_t hits = 0;
        std::uint64_t swept = ~std::uint64_t{0}; // one sweep of grace
    };

    std::vector<net::FlowMask> masks_;
    std::vector<std::unordered_map<net::FlowKey, Flow, churn::KeyBytesHash>> tables_;
    std::vector<std::uint64_t> hits_;
    std::vector<std::size_t> order_;
};

// Installs `draws` churn-shaped flows (churn_flows.h: eight masks, many
// re-installs of one masked key) plus /8 flows over the destinations of
// masks 1-3, so those keys match two subtables and the probe order
// decides which flow answers. Checks every lookup() and every
// lookup_batch() result — flow and probe count — against the reference
// model. With `churn` it also reranks, sweeps idle flows twice (the
// first sweep only consumes the fresh flows' grace; the second drops
// the flows no lookup bumped), removes every third draw's flow,
// installs more and reranks again.
void megaflow_matches_model(bool churn, std::size_t draws)
{
    const std::vector<net::FlowMask> masks = churn::masks();
    const std::vector<churn::Flow> flows = churn::flows(77, draws);
    const std::vector<churn::Flow> later = churn::flows(78, draws / 4);
    ovs::MegaflowCache cache;
    MegaflowModel model(masks);
    std::size_t bad = 0;
    std::string first_bad;
    auto expect = [&](const ovs::MegaflowCache::LookupResult& res,
                      const MegaflowModel::Hit& want, const char* what) {
        const int port = res.flow ? static_cast<int>(res.flow->actions[0].port) : -1;
        if (port == want.port && res.probes == want.probes) return;
        if (bad++ == 0) {
            first_bad = std::string(what) + ": port " + std::to_string(port) + " probes " +
                        std::to_string(res.probes) + ", model port " + std::to_string(want.port) +
                        " probes " + std::to_string(want.probes);
        }
    };
    std::uint32_t next_port = 1;
    auto install = [&](const std::vector<churn::Flow>& fs) {
        for (const churn::Flow& f : fs) {
            cache.insert(f.key, masks[f.mask], {kern::OdpAction::output(next_port)});
            model.insert(f.mask, f.key, next_port);
            ++next_port;
        }
    };
    // lookup() per key; `bump_every` > 0 bumps the hit flow's counter
    // on every key but each bump_every-th, as the datapath would.
    auto probe = [&](const std::vector<churn::Flow>& fs, std::size_t bump_every) {
        for (std::size_t i = 0; i < fs.size(); ++i) {
            const auto res = cache.lookup(fs[i].key);
            const MegaflowModel::Hit want = model.lookup(fs[i].key, true);
            expect(res, want, "lookup");
            if (bump_every && i % bump_every != 0 && res.flow) {
                ++res.flow->hits;
                model.bump(want);
            }
        }
    };
    auto probe_batched = [&](const std::vector<churn::Flow>& fs) {
        constexpr std::size_t kBurst = 32;
        for (std::size_t base = 0; base < fs.size(); base += kBurst) {
            const std::size_t n = std::min(kBurst, fs.size() - base);
            const net::FlowKey* keys[kBurst];
            ovs::MegaflowCache::LookupResult res[kBurst];
            for (std::size_t i = 0; i < n; ++i) keys[i] = &fs[base + i].key;
            cache.lookup_batch(keys, n, res);
            for (std::size_t i = 0; i < n; ++i) {
                expect(res[i], model.lookup(fs[base + i].key, false), "lookup_batch");
            }
        }
    };

    install(flows);
    std::vector<churn::Flow> wide;
    for (std::uint32_t t = 1; t < 4; ++t) {
        churn::Flow f = flows.front();
        f.key.nw_dst = (16 + t) << 24;
        f.mask = 0; // the /8 mask
        wide.push_back(f);
    }
    install(wide);
    probe(flows, 0);
    if (churn) {
        cache.rerank();
        model.rerank();
        EXPECT_EQ(cache.expire_idle(), model.expire_idle()); // grace only
        probe(flows, 3);
        const std::size_t swept = cache.expire_idle();
        EXPECT_EQ(swept, model.expire_idle());
        EXPECT_GT(swept, 0u);
        for (std::size_t i = 0; i < flows.size(); i += 3) {
            const churn::Flow& f = flows[i];
            EXPECT_EQ(cache.remove(f.key, masks[f.mask]), model.remove(f.mask, f.key));
        }
        install(later);
        cache.rerank();
        model.rerank();
    }
    probe(flows, 0);
    probe(later, 0);
    probe_batched(flows);
    probe_batched(later);
    EXPECT_EQ(bad, 0u) << bad << " lookups disagree with the model; first: " << first_bad;

    EXPECT_EQ(cache.flow_count(), model.flow_count());
    EXPECT_EQ(cache.mask_count(), model.mask_count());
    std::size_t visited = 0;
    cache.for_each_entry([&](const ovs::CachedFlow&, const net::FlowMask&) { ++visited; });
    EXPECT_EQ(visited, cache.flow_count());
}

TEST(MegaflowModel, LookupsMatchTheModel) { megaflow_matches_model(false, 256); }

TEST(MegaflowModel, RerankExpireRemoveMatchTheModel) { megaflow_matches_model(true, 256); }

// The same at the churn benchmark's scale: ~20k live flows, so the slot
// tables double several times, before and after the removals.
TEST(MegaflowModel, ChurnScaleTablesMatchTheModel) { megaflow_matches_model(true, 45000); }

// The kernel module's probe order: order_most_specific_first() puts
// the masks in order of exact bytes, most first, whatever order they
// came in, and a later rerank() still orders them by hits.
TEST(MegaflowModel, MostSpecificFirstThenRerankByHits)
{
    net::FlowMask m1;
    m1.bits.in_port = 0xffffffff;
    net::FlowMask m2 = m1;
    m2.bits.nw_dst = 0xffffffff;
    net::FlowMask m3 = m2;
    m3.bits.tp_dst = 0xffff;
    net::FlowKey key;
    key.in_port = 1;
    key.nw_dst = ipv4(10, 0, 0, 2);
    key.tp_dst = 80;
    net::FlowKey wide = key; // only m1's flow matches it
    wide.nw_dst = ipv4(9, 9, 9, 9);

    ovs::MegaflowCache cache;
    cache.insert(key, m1, {kern::OdpAction::output(1)});
    cache.insert(key, m2, {kern::OdpAction::output(2)});
    cache.insert(key, m3, {kern::OdpAction::output(3)});
    auto probe_order = [&] {
        std::vector<net::FlowMask> order;
        cache.for_each_entry(
            [&](const ovs::CachedFlow&, const net::FlowMask& m) { order.push_back(m); });
        return order;
    };
    auto answer = [&](const net::FlowKey& k) {
        const auto res = cache.lookup(k);
        return std::pair{res.flow ? res.flow->actions[0].port : 0u, res.probes};
    };
    EXPECT_EQ(probe_order(), (std::vector<net::FlowMask>{m1, m2, m3})); // as inserted

    cache.order_most_specific_first();
    EXPECT_EQ(probe_order(), (std::vector<net::FlowMask>{m3, m2, m1}));
    EXPECT_EQ(answer(key), std::pair(3u, 1));
    for (int i = 0; i < 3; ++i) EXPECT_EQ(answer(wide), std::pair(1u, 3));

    cache.rerank(); // hits since the last rerank: m1 3, m3 1, m2 0
    EXPECT_EQ(probe_order(), (std::vector<net::FlowMask>{m1, m3, m2}));
    EXPECT_EQ(answer(key), std::pair(1u, 1));
    EXPECT_EQ(answer(wide), std::pair(1u, 1));
}

// ---- datapath wiring ---------------------------------------------------

TEST(DpifSharding, AddPmdAutoReshards)
{
    kern::Kernel host;
    ovs::DpifNetdev dpif(host);
    EXPECT_EQ(dpif.ct().shard_count(), 1u);
    dpif.add_pmd("pmd0");
    dpif.add_pmd("pmd1");
    dpif.add_pmd("pmd2");
    EXPECT_EQ(dpif.ct().shard_count(), 4u); // next pow2 >= 3 PMDs
    dpif.add_pmd("pmd3");
    EXPECT_EQ(dpif.ct().shard_count(), 4u);
    dpif.add_pmd("pmd4");
    EXPECT_EQ(dpif.ct().shard_count(), 8u);
}

// ---- differential: sharded end state across all three providers --------

// The full ct+NAT fuzz corpus through the differential harness with
// every provider's tables sharded: verdicts, flow/ct end state and
// counters must diff clean — zero unexplained divergence — exactly as
// at the default shard count of 1.
class FuzzShardSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzShardSweep, ZeroDivergenceAcrossProviders)
{
    gen::FuzzConfig cfg;
    cfg.shards = GetParam();
    const gen::DiffReport report = gen::fuzz_run(4242, cfg, 300);
    EXPECT_TRUE(report.ok()) << "shards=" << cfg.shards << ": " << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzShardSweep, ::testing::Values(4u, 16u),
                         [](const auto& info) {
                             return "shards" + std::to_string(info.param);
                         });

} // namespace
} // namespace ovsx

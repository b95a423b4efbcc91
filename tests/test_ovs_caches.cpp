#include <gtest/gtest.h>

#include "net/builder.h"
#include "ovs/emc.h"
#include "ovs/megaflow.h"
#include "ovs/meter.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::FlowKey key_for(std::uint16_t sport, std::uint32_t dst = ipv4(10, 0, 0, 2))
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = 2000;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return net::parse_flow(p);
}

CachedFlowPtr flow_with_port(std::uint32_t port)
{
    auto f = std::make_shared<CachedFlow>();
    f->actions = {kern::OdpAction::output(port)};
    return f;
}

TEST(EmcTest, HitAfterInsert)
{
    Emc emc(1024);
    const auto key = key_for(1);
    const auto hash = key.hash();
    EXPECT_EQ(emc.lookup(key, hash), nullptr);
    emc.insert(key, hash, flow_with_port(7));
    auto* flow = emc.lookup(key, hash);
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->actions[0].port, 7u);
    EXPECT_EQ(emc.hits(), 1u);
    EXPECT_EQ(emc.misses(), 1u);
}

TEST(EmcTest, DistinguishesKeysWithSameBucket)
{
    Emc emc(2); // tiny: everything collides
    const auto k1 = key_for(1);
    const auto k2 = key_for(2);
    emc.insert(k1, k1.hash(), flow_with_port(1));
    emc.insert(k2, k2.hash(), flow_with_port(2));
    // Whatever survived eviction must map to its own key.
    if (auto* f = emc.lookup(k1, k1.hash())) {
        EXPECT_EQ(f->actions[0].port, 1u);
    }
    if (auto* f = emc.lookup(k2, k2.hash())) {
        EXPECT_EQ(f->actions[0].port, 2u);
    }
}

TEST(EmcTest, DeadFlowsAreSkippedAndSwept)
{
    Emc emc(1024);
    const auto key = key_for(1);
    auto flow = flow_with_port(3);
    emc.insert(key, key.hash(), flow);
    flow->dead = true;
    EXPECT_EQ(emc.lookup(key, key.hash()), nullptr);
    emc.insert(key, key.hash(), flow_with_port(4));
    EXPECT_GE(emc.sweep(), 0u);
    ASSERT_NE(emc.lookup(key, key.hash()), nullptr);
}

TEST(EmcTest, RequiresPowerOfTwo)
{
    EXPECT_THROW(Emc(1000), std::invalid_argument);
}

// Re-installing a flow under the same key and mask replaces the
// megaflow entry with a new CachedFlow; the replaced one must die, so an
// EMC entry that still points at it misses and the packet falls through
// to the new flow.
TEST(EmcTest, ReplacedMegaflowFlowLeavesTheEmc)
{
    MegaflowCache cache;
    Emc emc(1024);
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    const auto key = key_for(1);
    const CachedFlowPtr old_flow = cache.insert(key, mask, {kern::OdpAction::output(1)});
    emc.insert(key, key.hash(), old_flow);
    cache.insert(key, mask, {kern::OdpAction::output(2)});

    EXPECT_EQ(emc.lookup(key, key.hash()), nullptr);
    const auto res = cache.lookup(key);
    ASSERT_NE(res.flow, nullptr);
    EXPECT_EQ(res.flow->actions[0].port, 2u);
    EXPECT_TRUE(old_flow->dead.load());
    EXPECT_EQ(cache.flow_count(), 1u);
}

TEST(MegaflowTest, WildcardHit)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.nw_dst = 0xffffff00; // /24
    cache.insert(key_for(1), mask, {kern::OdpAction::output(9)});

    // Any packet in the /24 from port 1 hits, regardless of sport.
    for (std::uint16_t s = 100; s < 110; ++s) {
        auto res = cache.lookup(key_for(s, ipv4(10, 0, 0, 200)));
        ASSERT_NE(res.flow, nullptr) << s;
        EXPECT_EQ(res.flow->actions[0].port, 9u);
    }
    EXPECT_EQ(cache.lookup(key_for(1, ipv4(10, 0, 1, 2))).flow, nullptr);
    EXPECT_EQ(cache.flow_count(), 1u);
    EXPECT_EQ(cache.mask_count(), 1u);
}

TEST(MegaflowTest, ProbesGrowWithMaskCount)
{
    MegaflowCache cache;
    net::FlowMask m1;
    m1.bits.in_port = 0xffffffff;
    net::FlowMask m2 = m1;
    m2.bits.nw_dst = 0xffffffff;
    net::FlowMask m3 = m2;
    m3.bits.tp_src = 0xffff;

    cache.insert(key_for(50), m3, {kern::OdpAction::drop()});
    cache.insert(key_for(1, ipv4(9, 9, 9, 9)), m2, {kern::OdpAction::drop()});
    cache.insert(key_for(1), m1, {kern::OdpAction::output(1)});
    EXPECT_EQ(cache.mask_count(), 3u);

    // Key that only matches the m1 entry probes all three subtables in
    // the worst case.
    auto res = cache.lookup(key_for(77, ipv4(10, 0, 0, 99)));
    ASSERT_NE(res.flow, nullptr);
    EXPECT_GE(res.probes, 1);
    EXPECT_LE(res.probes, 3);
}

TEST(MegaflowTest, RerankPrefersHotSubtables)
{
    MegaflowCache cache;
    net::FlowMask cold;
    cold.bits.tp_src = 0xffff;
    cold.bits.in_port = 0xffffffff;
    net::FlowMask hot;
    hot.bits.in_port = 0xffffffff;
    // Insert the cold mask first so it is probed first.
    cache.insert(key_for(555), cold, {kern::OdpAction::drop()});
    cache.insert(key_for(1), hot, {kern::OdpAction::output(1)});

    // Hammer the hot entry.
    for (int i = 0; i < 100; ++i) {
        auto res = cache.lookup(key_for(7));
        ASSERT_NE(res.flow, nullptr);
    }
    const auto probes_before = cache.lookup(key_for(8)).probes;
    cache.rerank();
    const auto probes_after = cache.lookup(key_for(9)).probes;
    EXPECT_LE(probes_after, probes_before);
    EXPECT_EQ(probes_after, 1); // hot subtable now probed first
}

TEST(MegaflowTest, RemoveMarksDead)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    auto flow = cache.insert(key_for(1), mask, {kern::OdpAction::output(2)});
    EXPECT_TRUE(cache.remove(key_for(1), mask));
    EXPECT_TRUE(flow->dead); // EMC holders see the tombstone
    EXPECT_EQ(cache.lookup(key_for(1)).flow, nullptr);
    EXPECT_FALSE(cache.remove(key_for(1), mask));
}

TEST(MegaflowTest, ReplaceExisting)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    cache.insert(key_for(1), mask, {kern::OdpAction::output(1)});
    cache.insert(key_for(1), mask, {kern::OdpAction::output(2)});
    EXPECT_EQ(cache.flow_count(), 1u);
    EXPECT_EQ(cache.lookup(key_for(9)).flow->actions[0].port, 2u);
}

TEST(MeterTest, PpsMeterDropsAboveRate)
{
    MeterTable meters;
    meters.set(1, {.rate_kbps = 0, .rate_pps = 1000, .burst = 10});
    // Burst of 10 passes, the 11th in the same instant drops.
    int passed = 0;
    for (int i = 0; i < 11; ++i) {
        if (meters.admit(1, 64, 0)) ++passed;
    }
    EXPECT_EQ(passed, 10);
    EXPECT_EQ(meters.dropped(1), 1u);
    // After 5ms, 5 more tokens accumulated.
    passed = 0;
    for (int i = 0; i < 10; ++i) {
        if (meters.admit(1, 64, 5 * sim::kMilli)) ++passed;
    }
    EXPECT_EQ(passed, 5);
}

TEST(MeterTest, KbpsMeterAccountsBytes)
{
    MeterTable meters;
    // 8 Mbit/s with an 80 kbit bucket = 10 KB burst.
    meters.set(2, {.rate_kbps = 8000, .rate_pps = 0, .burst = 80000});
    int passed = 0;
    for (int i = 0; i < 20; ++i) {
        if (meters.admit(2, 1000, 0)) ++passed; // 8000 bits each
    }
    EXPECT_EQ(passed, 10);
}

TEST(MeterTest, UnknownMeterPasses)
{
    MeterTable meters;
    EXPECT_TRUE(meters.admit(99, 1500, 0));
}

TEST(MeterTest, RemoveRestoresPass)
{
    MeterTable meters;
    meters.set(3, {.rate_kbps = 0, .rate_pps = 1, .burst = 1});
    EXPECT_TRUE(meters.admit(3, 64, 0));
    EXPECT_FALSE(meters.admit(3, 64, 0));
    EXPECT_TRUE(meters.remove(3));
    EXPECT_TRUE(meters.admit(3, 64, 0));
}

} // namespace
} // namespace ovsx::ovs

// Parameterized property sweeps over the core data structures.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "afxdp/ring.h"
#include "gen/fuzz.h"
#include "kern/conntrack.h"
#include "net/builder.h"
#include "net/headers.h"
#include "net/tunnel.h"
#include "ovs/emc.h"
#include "sim/rng.h"

namespace ovsx {
namespace {

// ---- SPSC rings across capacities -------------------------------------

class RingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingSweep, TwoThreadFifoAtAnyCapacity)
{
    afxdp::SpscRing<std::uint64_t> ring(GetParam());
    // Modest count with yields: this host may be single-core, where a
    // full/empty ring otherwise burns a whole scheduler quantum per item.
    constexpr std::uint64_t kCount = 4000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount;) {
            if (ring.produce(i)) {
                ++i;
            } else {
                std::this_thread::yield();
            }
        }
    });
    std::uint64_t expected = 0;
    while (expected < kCount) {
        if (auto v = ring.consume()) {
            ASSERT_EQ(*v, expected);
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST_P(RingSweep, NeverExceedsCapacity)
{
    afxdp::SpscRing<int> ring(GetParam());
    std::uint32_t accepted = 0;
    for (std::uint32_t i = 0; i < GetParam() * 2; ++i) {
        if (ring.produce(static_cast<int>(i))) ++accepted;
    }
    EXPECT_EQ(accepted, GetParam());
    EXPECT_TRUE(ring.full());
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingSweep, ::testing::Values(2u, 8u, 64u, 1024u),
                         [](const auto& info) { return "cap" + std::to_string(info.param); });

// ---- conntrack across trackable protocols ------------------------------

class CtProtoSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(CtProtoSweep, FullLifecyclePerProtocol)
{
    const std::uint8_t proto = GetParam();
    kern::Conntrack ct;
    sim::ExecContext ctx("x", sim::CpuClass::Softirq);

    net::FlowKey key;
    key.nw_src = net::ipv4(1, 1, 1, 1);
    key.nw_dst = net::ipv4(2, 2, 2, 2);
    key.nw_proto = proto;
    key.tp_src = 1000;
    key.tp_dst = 2000;
    net::Packet pkt(64);

    auto r1 = ct.process(pkt, key, 0, /*commit=*/true, ctx, 0);
    EXPECT_TRUE(r1.state & net::kCtStateNew) << int(proto);

    net::FlowKey reply;
    reply.nw_src = key.nw_dst;
    reply.nw_dst = key.nw_src;
    reply.nw_proto = proto;
    reply.tp_src = key.tp_dst;
    reply.tp_dst = key.tp_src;
    auto r2 = ct.process(pkt, reply, 0, false, ctx, 1);
    EXPECT_TRUE(r2.state & net::kCtStateReply) << int(proto);
    EXPECT_TRUE(r2.state & net::kCtStateEstablished) << int(proto);
    EXPECT_EQ(ct.size(), 1u);
    EXPECT_EQ(ct.expire_idle(2), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CtProtoSweep,
                         ::testing::Values(std::uint8_t{1}, std::uint8_t{6}, std::uint8_t{17}),
                         [](const auto& info) {
                             switch (info.param) {
                             case 1: return std::string("icmp");
                             case 6: return std::string("tcp");
                             default: return std::string("udp");
                             }
                         });

// ---- tunnels across payload sizes ---------------------------------------

struct TunnelSizeCase {
    net::TunnelType type;
    std::size_t payload;
};

class TunnelSizeSweep : public ::testing::TestWithParam<TunnelSizeCase> {};

TEST_P(TunnelSizeSweep, RoundTripAtEverySize)
{
    const auto& param = GetParam();
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(1, 1, 1, 1);
    spec.dst_ip = net::ipv4(2, 2, 2, 2);
    spec.payload_len = param.payload;
    net::Packet pkt = net::build_udp(spec);
    const std::vector<std::uint8_t> original(pkt.bytes().begin(), pkt.bytes().end());

    net::TunnelKey key;
    key.tun_id = 42;
    key.ip_src = net::ipv4(172, 16, 0, 1);
    key.ip_dst = net::ipv4(172, 16, 0, 2);
    net::EncapParams params;
    params.outer_src_mac = net::MacAddr::from_id(1);
    params.outer_dst_mac = net::MacAddr::from_id(2);

    net::encapsulate(pkt, param.type, key, params);
    auto res = net::decapsulate(pkt, param.type);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(std::vector<std::uint8_t>(pkt.bytes().begin(), pkt.bytes().end()), original);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TunnelSizeSweep,
    ::testing::Values(TunnelSizeCase{net::TunnelType::Geneve, 1},
                      TunnelSizeCase{net::TunnelType::Geneve, 1448},
                      TunnelSizeCase{net::TunnelType::Geneve, 8972},
                      TunnelSizeCase{net::TunnelType::Vxlan, 18},
                      TunnelSizeCase{net::TunnelType::Vxlan, 1448},
                      TunnelSizeCase{net::TunnelType::Gre, 18},
                      TunnelSizeCase{net::TunnelType::Gre, 1448},
                      TunnelSizeCase{net::TunnelType::Erspan, 64}),
    [](const auto& info) {
        return std::string(net::to_string(info.param.type)) + "_" +
               std::to_string(info.param.payload);
    });

// ---- EMC across capacities -------------------------------------------------

class EmcSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EmcSweep, NeverReturnsWrongFlow)
{
    // Property: whatever the capacity and however many flows collide,
    // a lookup either misses or returns the flow inserted for exactly
    // that key.
    ovs::Emc emc(GetParam());
    sim::Rng rng(11);
    std::vector<std::pair<net::FlowKey, std::uint32_t>> inserted;
    for (int i = 0; i < 500; ++i) {
        net::UdpSpec spec;
        spec.src_ip = rng.u32();
        spec.dst_ip = rng.u32();
        spec.src_port = rng.u16();
        spec.dst_port = rng.u16();
        net::Packet pkt = net::build_udp(spec);
        const net::FlowKey key = net::parse_flow(pkt);
        auto flow = std::make_shared<ovs::CachedFlow>();
        flow->actions = {kern::OdpAction::output(static_cast<std::uint32_t>(i))};
        emc.insert(key, key.hash(), flow);
        inserted.emplace_back(key, static_cast<std::uint32_t>(i));
    }
    int hits = 0;
    for (const auto& [key, port] : inserted) {
        if (auto* flow = emc.lookup(key, key.hash())) {
            EXPECT_EQ(flow->actions[0].port, port);
            ++hits;
        }
    }
    EXPECT_GT(hits, 0);
    EXPECT_LE(emc.occupancy(), GetParam() * ovs::Emc::kWays);
}

INSTANTIATE_TEST_SUITE_P(Capacities, EmcSweep, ::testing::Values(4u, 64u, 1024u, 8192u),
                         [](const auto& info) { return "cap" + std::to_string(info.param); });

// ---- flow mask algebra --------------------------------------------------------

// Masks for the flow-mask property sweep. Byte-random masks almost
// never have an all-zero 64-bit lane, so they leave the mask plan's
// zero-run multiplier unexercised; the lane-sparse masks zero each lane
// with probability 1/2, giving zero runs of every length at every
// position. Then the edge masks: all-zero, exact, lane 0 only, lane 12
// only.
std::vector<net::FlowMask> mask_corpus(sim::Rng& rng)
{
    constexpr std::size_t kLanes = sizeof(net::FlowKey) / sizeof(std::uint64_t);
    auto random_bytes = [&](net::FlowMask& mask, std::size_t from, std::size_t to) {
        auto* mb = reinterpret_cast<std::uint8_t*>(&mask.bits);
        for (std::size_t i = from; i < to; ++i) mb[i] = (rng.next() & 1) ? 0xff : 0x00;
    };
    std::vector<net::FlowMask> masks;
    for (int trial = 0; trial < 300; ++trial) {
        net::FlowMask mask;
        random_bytes(mask, 0, sizeof(net::FlowKey));
        masks.push_back(mask);
    }
    for (int trial = 0; trial < 300; ++trial) {
        net::FlowMask mask;
        for (std::size_t l = 0; l < kLanes; ++l) {
            if (rng.next() & 1) random_bytes(mask, l * 8, l * 8 + 8);
        }
        masks.push_back(mask);
    }
    masks.push_back(net::FlowMask::none());
    masks.push_back(net::FlowMask::exact());
    for (const std::size_t l : {std::size_t{0}, kLanes - 1}) {
        net::FlowMask mask;
        std::memset(reinterpret_cast<std::uint8_t*>(&mask.bits) + l * 8, 0xff, 8);
        masks.push_back(mask);
    }
    return masks;
}

TEST(FlowMaskProperty, ApplyIsIdempotentAndMatchConsistent)
{
    sim::Rng rng(13);
    for (const net::FlowMask& mask : mask_corpus(rng)) {
        const auto* mb = reinterpret_cast<const std::uint8_t*>(&mask.bits);
        net::UdpSpec spec;
        spec.src_ip = rng.u32();
        spec.dst_ip = rng.u32();
        spec.src_port = rng.u16();
        spec.dst_port = rng.u16();
        net::Packet pkt = net::build_udp(spec);
        pkt.meta().in_port = rng.u32() % 64;
        const net::FlowKey key = net::parse_flow(pkt);

        const net::FlowKey masked = mask.apply(key);
        // Idempotence: masking a masked key is a no-op.
        ASSERT_EQ(mask.apply(masked), masked);
        // Consistency: a key always matches its own masked image.
        ASSERT_TRUE(mask.matches(key, masked));
        // Perturbing any masked-in byte breaks the match.
        for (std::size_t i = 0; i < sizeof(net::FlowKey); ++i) {
            if (mb[i] != 0xff) continue;
            net::FlowKey tweaked = key;
            reinterpret_cast<std::uint8_t*>(&tweaked)[i] ^= 0x5a;
            ASSERT_FALSE(mask.matches(tweaked, masked));
            break; // one byte per trial is enough
        }

        // The fused lookup-path helpers must agree with the reference
        // two-step forms for every (mask, key) pair: masked_hash with
        // apply+hash (megaflow buckets are keyed by it), same_masked
        // with masked-image equality.
        const std::uint64_t basis = rng.next();
        ASSERT_EQ(mask.masked_hash(key, basis), masked.hash(basis));
        ASSERT_TRUE(mask.same_masked(key, masked));

        // The compiled probe plan must be bit-identical to the reference
        // forms it stands in for on the megaflow and kernel probe paths:
        // hash with masked_hash at basis 0, match with matches, for the
        // key and for a key with one random byte changed.
        const net::MaskPlan plan(mask);
        net::FlowKey tweaked = key;
        reinterpret_cast<std::uint8_t*>(&tweaked)[rng.below(sizeof(net::FlowKey))] ^= 0x5a;
        for (const net::FlowKey* k : {&key, &std::as_const(tweaked)}) {
            ASSERT_EQ(plan.hash(*k), mask.masked_hash(*k));
            ASSERT_EQ(plan.matches(*k, masked), mask.matches(*k, masked));
        }
    }
}

// ---- burst-twin verdict equivalence at random burst sizes ----------------

// Two fresh netdev instances on one chunked schedule must agree at ANY
// burst size, not just the sizes the soak rotates through. Each trial
// draws a random chunk size in [1, 64] and drives a seeded fuzz
// sequence through fuzz_run's burst-twin leg, which diffs the
// per-packet verdict vectors (re-attributed by trace id), flow/ct end
// state, and semantic counters — any mismatch comes back as an
// unexplained divergence.
class BurstTwinSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstTwinSweep, VerdictVectorsMatchAtRandomBurstSizes)
{
    const std::uint64_t seed = GetParam();
    sim::Rng rng(seed ^ 0xba7c4);
    for (int trial = 0; trial < 3; ++trial) {
        gen::FuzzConfig cfg;
        cfg.batch_size = 1 + rng.below(64); // [1, 64]: partial, full, multi-burst
        const gen::DiffReport report = gen::fuzz_run(seed + trial, cfg, 400);
        EXPECT_TRUE(report.ok())
            << "seed=" << seed + trial << " b=" << cfg.batch_size << ": "
            << report.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstTwinSweep, ::testing::Values(11u, 222u, 3333u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

} // namespace
} // namespace ovsx

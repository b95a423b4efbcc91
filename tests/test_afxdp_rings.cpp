#include <gtest/gtest.h>

#include <thread>

#include "afxdp/ring.h"
#include "afxdp/umem.h"
#include "afxdp/xsk.h"
#include "net/builder.h"

namespace ovsx::afxdp {
namespace {

TEST(SpscRing, BasicProduceConsume)
{
    SpscRing<int> ring(8);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_TRUE(ring.produce(1));
    EXPECT_TRUE(ring.produce(2));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.consume().value(), 1);
    EXPECT_EQ(ring.consume().value(), 2);
    EXPECT_FALSE(ring.consume().has_value());
}

TEST(SpscRing, FullRingRejects)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.produce(i));
    EXPECT_TRUE(ring.full());
    EXPECT_FALSE(ring.produce(99));
    EXPECT_EQ(ring.consume().value(), 0);
    EXPECT_TRUE(ring.produce(99)); // room again
}

TEST(SpscRing, RequiresPowerOfTwo)
{
    EXPECT_THROW(SpscRing<int>(3), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
    EXPECT_NO_THROW(SpscRing<int>(16));
}

TEST(SpscRing, BatchOperations)
{
    SpscRing<int> ring(8);
    const int items[6] = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(ring.produce_batch(items, 6), 6u);
    EXPECT_EQ(ring.produce_batch(items, 6), 2u); // only room for 2 more
    int out[8] = {};
    EXPECT_EQ(ring.consume_batch(out, 8), 8u);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[5], 6);
    EXPECT_EQ(out[6], 1); // wrapped batch
}

TEST(SpscRing, PeekLeavesTheItemOnTheRing)
{
    SpscRing<int> ring(4);
    EXPECT_FALSE(ring.peek().has_value());
    ASSERT_TRUE(ring.produce(7));
    ASSERT_TRUE(ring.produce(8));
    EXPECT_EQ(ring.peek().value(), 7);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.consume().value(), 7);
    EXPECT_EQ(ring.peek().value(), 8);
    EXPECT_EQ(ring.consume().value(), 8);
    EXPECT_FALSE(ring.peek().has_value());
}

TEST(SpscRing, IndexWraparound)
{
    SpscRing<int> ring(4);
    for (int round = 0; round < 1000; ++round) {
        ASSERT_TRUE(ring.produce(round));
        ASSERT_EQ(ring.consume().value(), round);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ConcurrentProducerConsumer)
{
    // Real two-thread stress: every item must arrive exactly once, in order.
    SpscRing<std::uint64_t> ring(1024);
    constexpr std::uint64_t kCount = 50000;
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

TEST(Umem, GeometryAndFrames)
{
    Umem umem(64, 2048);
    EXPECT_EQ(umem.chunk_count(), 64u);
    EXPECT_TRUE(umem.valid(0));
    EXPECT_TRUE(umem.valid(2048));
    EXPECT_FALSE(umem.valid(1));          // not chunk aligned
    EXPECT_FALSE(umem.valid(64 * 2048));  // past the end
    auto f = umem.frame(2048);
    EXPECT_EQ(f.size(), 2048u);
    f[0] = 0xab;
    EXPECT_EQ(umem.frame(2048)[0], 0xab);
    EXPECT_THROW(umem.frame(3), std::out_of_range);
}

TEST(Umem, BadGeometryRejected)
{
    EXPECT_THROW(Umem(0, 2048), std::invalid_argument);
    EXPECT_THROW(Umem(16, 32), std::invalid_argument);
    // Aligned mode: the chunk size must be a power of two.
    EXPECT_THROW(Umem(16, 3000), std::invalid_argument);
    EXPECT_NO_THROW(Umem(16, 4096));
}

TEST(Umem, FramesIndexByShiftAndMask)
{
    Umem umem(8, 4096);
    EXPECT_TRUE(umem.valid(7 * 4096));
    EXPECT_FALSE(umem.valid(8 * 4096));
    EXPECT_FALSE(umem.valid(4096 + 2048)); // misaligned
    EXPECT_THROW(umem.frame(4096 + 64), std::out_of_range);
    EXPECT_THROW(umem.frame(8 * 4096), std::out_of_range);
    auto f = umem.frame(3 * 4096);
    EXPECT_EQ(f.size(), 4096u);
    f[4095] = 0x5a;
    EXPECT_EQ(umem.frame(3 * 4096)[4095], 0x5a);
    umem.prefetch_for_write(9 * 4096); // outside the umem: ignored
}

class XskTest : public ::testing::Test {
protected:
    net::Packet sample()
    {
        net::UdpSpec spec;
        spec.src_ip = net::ipv4(1, 1, 1, 1);
        spec.dst_ip = net::ipv4(2, 2, 2, 2);
        spec.src_port = 10;
        spec.dst_port = 20;
        return net::build_udp(spec);
    }

    Umem umem{64};
    XskSocket sock{umem};
    sim::ExecContext softirq{"softirq", sim::CpuClass::Softirq};
};

TEST_F(XskTest, DeliverRequiresFillFrames)
{
    // No fill frames posted: delivery fails (drop).
    EXPECT_FALSE(sock.kernel_deliver(sample(), sim::CostModel::baseline(), softirq));
    EXPECT_EQ(sock.rx_dropped_no_frame, 1u);

    // Post a frame and retry.
    umem.fill().produce(0);
    EXPECT_TRUE(sock.kernel_deliver(sample(), sim::CostModel::baseline(), softirq));
    EXPECT_EQ(sock.rx_delivered, 1u);

    auto desc = sock.rx().consume();
    ASSERT_TRUE(desc.has_value());
    EXPECT_EQ(desc->addr, 0u);
    EXPECT_EQ(desc->len, sample().size());
    // The frame holds the packet bytes.
    auto frame = umem.frame(desc->addr);
    const auto pkt = sample();
    EXPECT_EQ(0, std::memcmp(frame.data(), pkt.data(), pkt.size()));
}

TEST_F(XskTest, DeliverConsumesFillFramesInOrder)
{
    // Prefetching the next fill frame leaves the ring's order alone.
    for (FrameAddr a : {3 * 2048, 1 * 2048, 5 * 2048}) umem.fill().produce(a);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(sock.kernel_deliver(sample(), sim::CostModel::baseline(), softirq));
    }
    EXPECT_EQ(sock.rx().consume()->addr, 3u * 2048u);
    EXPECT_EQ(sock.rx().consume()->addr, 1u * 2048u);
    EXPECT_EQ(sock.rx().consume()->addr, 5u * 2048u);
    EXPECT_FALSE(sock.kernel_deliver(sample(), sim::CostModel::baseline(), softirq));
    EXPECT_EQ(sock.rx_dropped_no_frame, 1u);
}

TEST_F(XskTest, TxCollectRoundTrip)
{
    // Userspace posts a TX descriptor...
    const auto pkt = sample();
    auto frame = umem.frame(4 * 2048);
    std::memcpy(frame.data(), pkt.data(), pkt.size());
    sock.tx().produce({4 * 2048, static_cast<std::uint32_t>(pkt.size()), 0});

    // ...the kernel collects and completes it.
    auto collected = sock.kernel_collect_tx(sim::CostModel::baseline(), softirq);
    ASSERT_TRUE(collected.has_value());
    EXPECT_EQ(collected->size(), pkt.size());
    EXPECT_EQ(0, std::memcmp(collected->data(), pkt.data(), pkt.size()));
    EXPECT_EQ(umem.comp().consume().value(), 4u * 2048u);
    EXPECT_EQ(sock.tx_completed, 1u);
    EXPECT_FALSE(sock.kernel_collect_tx(sim::CostModel::baseline(), softirq).has_value());
}

TEST_F(XskTest, CopyModeChargesMore)
{
    XskSocket zc{umem, 2048, BindMode::ZeroCopy};
    XskSocket cp{umem, 2048, BindMode::Copy};
    sim::ExecContext c1{"s1", sim::CpuClass::Softirq};
    sim::ExecContext c2{"s2", sim::CpuClass::Softirq};
    umem.fill().produce(0);
    zc.kernel_deliver(sample(), sim::CostModel::baseline(), c1);
    umem.fill().produce(2048);
    cp.kernel_deliver(sample(), sim::CostModel::baseline(), c2);
    EXPECT_GT(c2.total_busy(), c1.total_busy());
}

} // namespace
} // namespace ovsx::afxdp

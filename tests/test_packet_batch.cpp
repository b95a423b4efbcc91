// net::PacketBatch — a fixed-capacity packet vector with no datapath
// user left (see net/packet_batch.h for why it is kept). Covers the boundary sizes (empty, single,
// exactly-full, capacity+1 spilling into a second cycle), sparse
// drop/punt masking, the reorder-freedom guarantee (indices are stable,
// live slots visit in arrival order no matter which slots died), and
// san packet-ledger accounting across kill/take/clear and batch reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/packet_batch.h"
#include "san/packet_ledger.h"
#include "san/report.h"

namespace ovsx {
namespace {

using net::Packet;
using net::PacketBatch;
using san::ScopedCollect;
using san::ScopedHardened;

// A small distinct payload so a slot's packet is identifiable by value.
Packet tagged_packet(std::uint8_t tag)
{
    Packet p(4);
    p.data()[0] = tag;
    p.meta().in_port = tag;
    return p;
}

// Ledger-tracked variant: the batch owns a live skb record until the
// slot is killed, taken, or cleared.
Packet tracked_packet(std::uint8_t tag)
{
    Packet p = tagged_packet(tag);
    p.set_san_id(san::skb_acquire("batch-test", san::SkbState::Datapath, OVSX_SITE));
    return p;
}

TEST(PacketBatch, EmptyBatchHasNoSlots)
{
    PacketBatch b;
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.alive_count(), 0u);
    EXPECT_EQ(b.alive_mask(), 0u);
    EXPECT_FALSE(b.alive(0));

    std::size_t visited = 0;
    b.for_each_alive([&](std::size_t, Packet&) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(PacketBatch, SinglePacket)
{
    PacketBatch b;
    ASSERT_TRUE(b.add(tagged_packet(7)));
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.alive_count(), 1u);
    EXPECT_TRUE(b.alive(0));
    EXPECT_FALSE(b.alive(1));
    EXPECT_EQ(b.pkt(0).data()[0], 7);
}

TEST(PacketBatch, FillsToCapacityThenRejects)
{
    PacketBatch b;
    for (std::size_t i = 0; i < PacketBatch::kCapacity; ++i) {
        ASSERT_TRUE(b.add(tagged_packet(static_cast<std::uint8_t>(i))));
    }
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.size(), PacketBatch::kCapacity);
    EXPECT_EQ(b.alive_count(), PacketBatch::kCapacity);
    EXPECT_EQ(b.alive_mask(), 0xffffffffu);

    // Packet capacity+1 must be rejected with the packet left intact —
    // the spine flushes the full batch and starts a second cycle.
    Packet overflow = tagged_packet(0xee);
    EXPECT_FALSE(b.add(std::move(overflow)));
    EXPECT_EQ(overflow.data()[0], 0xee); // untouched on rejection
    EXPECT_EQ(b.size(), PacketBatch::kCapacity);
}

TEST(PacketBatch, CapacityPlusOneSplitsAcrossTwoCycles)
{
    // The caller-side pattern dpif uses: add until full, process, clear,
    // continue. capacity+1 packets => cycles of size {capacity, 1}.
    PacketBatch b;
    std::vector<std::uint8_t> seen;
    std::size_t cycles = 0;

    std::vector<Packet> input;
    for (std::size_t i = 0; i < PacketBatch::kCapacity + 1; ++i) {
        input.push_back(tagged_packet(static_cast<std::uint8_t>(i)));
    }
    const auto flush = [&] {
        b.for_each_alive([&](std::size_t, Packet& p) { seen.push_back(p.data()[0]); });
        b.clear();
        ++cycles;
    };
    for (auto& p : input) {
        if (!b.add(std::move(p))) {
            flush();
            ASSERT_TRUE(b.add(std::move(p)));
        }
    }
    if (!b.empty()) flush();

    EXPECT_EQ(cycles, 2u);
    ASSERT_EQ(seen.size(), PacketBatch::kCapacity + 1);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], static_cast<std::uint8_t>(i)); // arrival order
    }
}

TEST(PacketBatch, SparseKillMasksSlotsWithoutCompacting)
{
    PacketBatch b;
    for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(b.add(tagged_packet(static_cast<std::uint8_t>(i))));
    }
    // Kill a sparse pattern: 0 (head), 3 (middle), 7 (tail).
    b.kill(0);
    b.kill(3);
    b.kill(7);
    EXPECT_EQ(b.size(), 8u);        // slots are never compacted
    EXPECT_EQ(b.alive_count(), 5u);
    EXPECT_EQ(b.alive_mask(), 0b01110110u);

    // Survivors keep their original indices and payloads.
    for (const std::size_t i : {1u, 2u, 4u, 5u, 6u}) {
        EXPECT_TRUE(b.alive(i));
        EXPECT_EQ(b.pkt(i).data()[0], static_cast<std::uint8_t>(i));
    }
    // Killing a dead slot is a no-op, not a fault.
    b.kill(3);
    EXPECT_EQ(b.alive_count(), 5u);
}

TEST(PacketBatch, ForEachAliveVisitsArrivalOrderAroundHoles)
{
    PacketBatch b;
    for (std::size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(b.add(tagged_packet(static_cast<std::uint8_t>(i))));
    }
    for (const std::size_t i : {1u, 2u, 5u, 8u}) b.kill(i);

    std::vector<std::size_t> order;
    b.for_each_alive([&](std::size_t i, Packet& p) {
        EXPECT_EQ(p.data()[0], static_cast<std::uint8_t>(i));
        order.push_back(i);
    });
    // Reorder freedom: the visit is exactly the surviving indices,
    // ascending — no hole shifts a later packet forward.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 4, 6, 7, 9}));
}

TEST(PacketBatch, TakeMovesPacketOutAndMasksSlot)
{
    PacketBatch b;
    ASSERT_TRUE(b.add(tagged_packet(1)));
    ASSERT_TRUE(b.add(tagged_packet(2)));

    Packet p = b.take(1); // per-packet fallback path (recirc/upcall/ct)
    EXPECT_EQ(p.data()[0], 2);
    EXPECT_FALSE(b.alive(1));
    EXPECT_TRUE(b.alive(0));
    EXPECT_EQ(b.size(), 2u); // index space unchanged
}

TEST(PacketBatch, SidebandSlotsTrackIndices)
{
    PacketBatch b;
    ASSERT_TRUE(b.add(tagged_packet(1)));
    ASSERT_TRUE(b.add(tagged_packet(2)));
    b.key(0).in_port = 11;
    b.key(1).in_port = 22;
    b.hash(0) = 0xaaa;
    b.hash(1) = 0xbbb;

    b.kill(0); // killing the packet does not disturb the sideband
    EXPECT_EQ(b.key(1).in_port, 22u);
    EXPECT_EQ(b.hash(1), 0xbbbu);
}

// ---- san packet-ledger accounting --------------------------------------

TEST(PacketBatchSan, KillRetiresTheSkbAtTheDropPoint)
{
    ScopedHardened hardened;
    ScopedCollect collect;
    const std::uint64_t first = san::skb_next_id();

    PacketBatch b;
    ASSERT_TRUE(b.add(tracked_packet(1)));
    ASSERT_TRUE(b.add(tracked_packet(2)));
    EXPECT_EQ(san::skb_live_count(), 2u);

    // kill() destroys the slot's packet immediately — the ledger must
    // see the retire now, not at batch clear/recycle.
    b.kill(0);
    EXPECT_EQ(san::skb_live_count(), 1u);

    b.clear();
    EXPECT_EQ(san::skb_live_count(), 0u);
    EXPECT_EQ(san::skb_leak_check_since(first, OVSX_SITE), 0u);
    EXPECT_TRUE(collect.violations().empty());
}

TEST(PacketBatchSan, TakeTransfersOwnershipOutOfTheBatch)
{
    ScopedHardened hardened;
    ScopedCollect collect;
    const std::uint64_t first = san::skb_next_id();

    PacketBatch b;
    ASSERT_TRUE(b.add(tracked_packet(1)));
    {
        Packet p = b.take(0);
        EXPECT_EQ(san::skb_live_count(), 1u); // alive, owned by `p`
        b.clear();                            // must not retire p's record
        EXPECT_EQ(san::skb_live_count(), 1u);
    }
    EXPECT_EQ(san::skb_live_count(), 0u);
    EXPECT_EQ(san::skb_leak_check_since(first, OVSX_SITE), 0u);
    EXPECT_TRUE(collect.violations().empty());
}

TEST(PacketBatchSan, RecyclingTheSameBatchLeaksNothing)
{
    ScopedHardened hardened;
    ScopedCollect collect;
    const std::uint64_t first = san::skb_next_id();

    // The dpif spine reuses one scratch batch across every burst; cycle
    // it several times with mixed kill/take/clear outcomes and audit
    // the ledger after each recycle.
    PacketBatch b;
    for (int cycle = 0; cycle < 4; ++cycle) {
        for (std::size_t i = 0; i < PacketBatch::kCapacity; ++i) {
            ASSERT_TRUE(b.add(tracked_packet(static_cast<std::uint8_t>(i))));
        }
        b.kill(0);
        b.kill(PacketBatch::kCapacity - 1);
        { Packet fallback = b.take(5); } // destroyed at scope exit
        b.clear();
        EXPECT_TRUE(b.empty());
        EXPECT_EQ(san::skb_live_count(), 0u) << "cycle " << cycle;
        EXPECT_EQ(san::skb_leak_check_since(first, OVSX_SITE), 0u) << "cycle " << cycle;
    }
    EXPECT_TRUE(collect.violations().empty());
}

TEST(PacketBatchSan, AbandonedBatchRetiresPacketsOnDestruction)
{
    ScopedHardened hardened;
    ScopedCollect collect;
    const std::uint64_t first = san::skb_next_id();
    {
        PacketBatch b;
        ASSERT_TRUE(b.add(tracked_packet(1)));
        ASSERT_TRUE(b.add(tracked_packet(2)));
        // No clear(): destruction of the batch destroys the slots.
    }
    EXPECT_EQ(san::skb_live_count(), 0u);
    EXPECT_EQ(san::skb_leak_check_since(first, OVSX_SITE), 0u);
    EXPECT_TRUE(collect.violations().empty());
}

} // namespace
} // namespace ovsx

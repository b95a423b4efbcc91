// Fixed-capacity packet vector for VPP-style burst processing.
//
// No datapath code uses this type: dpif-netdev runs every rx burst
// through its per-packet pipeline. It is kept because the wall-clock
// benchmark sizes its lookup_batch replay with kCapacity (reached
// through ovs/dpif_netdev.h); once that leg uses Netdev::kBatchSize,
// this header and its tests can go.
//
// A PacketBatch holds up to kCapacity packets in arrival order together
// with a per-packet classification sideband (flow key + hash). Dropped
// or punted packets are masked out *sparsely* — slots are never
// compacted, so the index of a packet never changes while it sits in a
// batch and downstream stages observe exactly the arrival order.
//
// kill(i) destroys the slot's packet immediately (retiring its san skb
// record) rather than waiting for batch recycling, so ledger leak
// checks stay precise across reuse.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "net/flow.h"
#include "net/packet.h"

namespace ovsx::net {

class PacketBatch {
public:
    static constexpr std::size_t kCapacity = 32; // == Netdev::kBatchSize

    PacketBatch() = default;
    PacketBatch(const PacketBatch&) = delete;
    PacketBatch& operator=(const PacketBatch&) = delete;

    // Slots ever filled this cycle (dead ones included — indices are
    // stable). alive_count() is the packets still in flight.
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == kCapacity; }
    std::size_t alive_count() const
    {
        return static_cast<std::size_t>(std::popcount(alive_));
    }
    std::uint32_t alive_mask() const { return alive_; }

    // Appends a packet; returns false (packet untouched) when full.
    bool add(Packet&& pkt)
    {
        if (full()) return false;
        slots_[count_] = std::move(pkt);
        alive_ |= bit(count_);
        ++count_;
        return true;
    }

    bool alive(std::size_t i) const { return i < count_ && (alive_ & bit(i)); }

    Packet& pkt(std::size_t i) { return slots_[i]; }
    const Packet& pkt(std::size_t i) const { return slots_[i]; }
    FlowKey& key(std::size_t i) { return keys_[i]; }
    const FlowKey& key(std::size_t i) const { return keys_[i]; }
    std::uint64_t& hash(std::size_t i) { return hashes_[i]; }
    std::uint64_t hash(std::size_t i) const { return hashes_[i]; }

    // Masks the slot out and destroys its packet now (drop semantics:
    // the san ledger sees the retire at the drop point, not at recycle).
    void kill(std::size_t i)
    {
        if (!alive(i)) return;
        slots_[i] = Packet{};
        alive_ &= ~bit(i);
    }

    // Moves the packet out (per-packet fallback: recirc, upcall, ct)
    // and masks the slot; the batch keeps no claim on it.
    Packet take(std::size_t i)
    {
        Packet p = std::move(slots_[i]);
        alive_ &= ~bit(i);
        return p;
    }

    // Destroys any remaining packets and resets for reuse.
    void clear()
    {
        for (std::size_t i = 0; i < count_; ++i) {
            if (alive_ & bit(i)) slots_[i] = Packet{};
        }
        alive_ = 0;
        count_ = 0;
    }

    // Visits live slots in arrival order: fn(index, Packet&).
    template <typename Fn> void for_each_alive(Fn&& fn)
    {
        for (std::size_t i = 0; i < count_; ++i) {
            if (alive_ & bit(i)) fn(i, slots_[i]);
        }
    }

private:
    static std::uint32_t bit(std::size_t i) { return std::uint32_t{1} << i; }

    std::array<Packet, kCapacity> slots_;
    std::array<FlowKey, kCapacity> keys_{};
    std::array<std::uint64_t, kCapacity> hashes_{};
    std::uint32_t alive_ = 0;
    std::size_t count_ = 0;
};

} // namespace ovsx::net

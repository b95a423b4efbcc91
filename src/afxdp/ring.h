// Single-producer / single-consumer descriptor ring, the core data
// structure of the AF_XDP user/kernel ABI (fill, completion, rx and tx
// rings are all instances of this shape).
//
// This is a real lock-free ring — producer and consumer may live on
// different threads — with the same power-of-two, free-running-index
// design as the kernel's xsk_queue.
//
// Memory-ordering audit (docs/CONCURRENCY.md). Two synchronizing pairs
// carry all cross-thread data:
//
//   P1  producer's release store of prod_   ->  consumer's acquire load
//       of prod_ (consume/peek/consume_batch/size). A consumer that observes
//       prod_ >= i+1 therefore observes the write to slots_[i & mask]
//       sequenced before that store — descriptors are published safely.
//
//   P2  consumer's release store of cons_   ->  producer's acquire load
//       of cons_ (produce/produce_batch/size). A producer that observes
//       cons_ >= i+1 knows slots_[i & mask] has been read out, so
//       overwriting the slot on wrap cannot race the consumer's read.
//
// Each side loads its OWN index relaxed: it is the only writer of that
// index, so it always sees its latest value (same-thread coherence);
// acquire there would order nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

namespace ovsx::afxdp {

template <typename T> class SpscRing {
public:
    explicit SpscRing(std::uint32_t capacity_pow2) : slots_(capacity_pow2), mask_(capacity_pow2 - 1)
    {
        if (capacity_pow2 == 0 || (capacity_pow2 & mask_) != 0) {
            throw std::invalid_argument("SpscRing capacity must be a power of two");
        }
    }

    std::uint32_t capacity() const { return static_cast<std::uint32_t>(slots_.size()); }

    std::uint32_t size() const
    {
        return prod_.load(std::memory_order_acquire) - cons_.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }
    bool full() const { return size() == capacity(); }

    // Producer side: returns false when the ring is full.
    bool produce(const T& item)
    {
        const std::uint32_t prod = prod_.load(std::memory_order_relaxed); // own index
        const std::uint32_t cons = cons_.load(std::memory_order_acquire); // pair P2
        if (prod - cons == capacity()) return false;
        slots_[prod & mask_] = item;
        prod_.store(prod + 1, std::memory_order_release); // pair P1: publishes the slot
        return true;
    }

    // Produces up to `n` items from `items`; returns the number accepted.
    std::uint32_t produce_batch(const T* items, std::uint32_t n)
    {
        const std::uint32_t prod = prod_.load(std::memory_order_relaxed);
        const std::uint32_t cons = cons_.load(std::memory_order_acquire);
        const std::uint32_t room = capacity() - (prod - cons);
        const std::uint32_t take = n < room ? n : room;
        for (std::uint32_t i = 0; i < take; ++i) slots_[(prod + i) & mask_] = items[i];
        prod_.store(prod + take, std::memory_order_release);
        return take;
    }

    // Consumer side: returns nullopt when empty.
    std::optional<T> consume()
    {
        const std::uint32_t cons = cons_.load(std::memory_order_relaxed); // own index
        const std::uint32_t prod = prod_.load(std::memory_order_acquire); // pair P1
        if (prod == cons) return std::nullopt;
        T item = slots_[cons & mask_];
        cons_.store(cons + 1, std::memory_order_release); // pair P2: frees the slot
        return item;
    }

    // Consumer side: the next item consume() would return, left on the
    // ring; nullopt when empty.
    std::optional<T> peek() const
    {
        const std::uint32_t cons = cons_.load(std::memory_order_relaxed); // own index
        const std::uint32_t prod = prod_.load(std::memory_order_acquire); // pair P1
        if (prod == cons) return std::nullopt;
        return slots_[cons & mask_];
    }

    // Consumes up to `n` items into `out`; returns the number consumed.
    std::uint32_t consume_batch(T* out, std::uint32_t n)
    {
        const std::uint32_t cons = cons_.load(std::memory_order_relaxed);
        const std::uint32_t prod = prod_.load(std::memory_order_acquire);
        const std::uint32_t avail = prod - cons;
        const std::uint32_t take = n < avail ? n : avail;
        for (std::uint32_t i = 0; i < take; ++i) out[i] = slots_[(cons + i) & mask_];
        cons_.store(cons + take, std::memory_order_release);
        return take;
    }

private:
    std::vector<T> slots_; // written by producer, read by consumer; ordered by P1/P2
    std::uint32_t mask_;   // immutable after construction
    // Separate cache lines so the producer's index store does not
    // false-share with the consumer's.
    alignas(64) std::atomic<std::uint32_t> prod_{0};
    alignas(64) std::atomic<std::uint32_t> cons_{0};
};

} // namespace ovsx::afxdp

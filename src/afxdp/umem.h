// Umem: the shared packet-buffer region registered with an AF_XDP
// socket, carved into fixed-size chunks, plus its fill and completion
// rings (§3.1 and Figure 4 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "afxdp/ring.h"
#include "san/report.h"

namespace ovsx::afxdp {

// A frame address within the umem: byte offset of the chunk start.
using FrameAddr = std::uint64_t;

class Umem {
public:
    static constexpr std::uint32_t kDefaultChunkSize = 2048;

    // Aligned mode, as the kernel requires it: the chunk size is a power
    // of two (and at least 64 here), so frames index by shift and mask.
    Umem(std::uint32_t chunk_count, std::uint32_t chunk_size = kDefaultChunkSize,
         std::uint32_t ring_capacity = 2048);

    std::uint32_t chunk_count() const { return chunk_count_; }
    std::uint32_t chunk_size() const { return chunk_size_; }

    // Raw access to a chunk's memory; throws std::out_of_range unless
    // `addr` is valid().
    std::span<std::uint8_t> frame(FrameAddr addr)
    {
        check(addr);
        return {buffer_.data() + addr, chunk_size_};
    }
    std::span<const std::uint8_t> frame(FrameAddr addr) const
    {
        check(addr);
        return {buffer_.data() + addr, chunk_size_};
    }

    // Prefetches the head of frame `addr` for writing; an invalid
    // address is ignored.
    void prefetch_for_write(FrameAddr addr) const
    {
        if (valid(addr)) __builtin_prefetch(buffer_.data() + addr, 1);
    }

    // True if addr names a valid chunk boundary.
    bool valid(FrameAddr addr) const
    {
        return (addr & chunk_mask_) == 0 && (addr >> chunk_shift_) < chunk_count_;
    }

    // Fill ring: userspace -> kernel (empty frames for RX).
    SpscRing<FrameAddr>& fill() { return fill_; }
    // Completion ring: kernel -> userspace (frames whose TX finished).
    SpscRing<FrameAddr>& comp() { return comp_; }

    // san frame-tracker scope for this umem. Frames are only tracked
    // once an owner registers them (NetdevAfxdp does; raw-ring tests
    // don't), so the scope existing is free.
    std::uint64_t san_scope() const { return san_scope_; }

private:
    void check(FrameAddr addr) const
    {
        if (!valid(addr)) [[unlikely]] throw_bad_addr();
    }
    [[noreturn]] static void throw_bad_addr();

    std::uint32_t chunk_count_;
    std::uint32_t chunk_size_;
    std::uint32_t chunk_shift_ = 0;
    std::uint64_t chunk_mask_ = 0;
    std::vector<std::uint8_t> buffer_;
    SpscRing<FrameAddr> fill_;
    SpscRing<FrameAddr> comp_;
    std::uint64_t san_scope_ = san::new_scope();
};

} // namespace ovsx::afxdp

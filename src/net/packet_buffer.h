// Packet buffer storage: fixed-size blocks in two classes, recycled
// through a per-thread cache. This is the host-side counterpart of what
// the cost model charges for packet metadata (§3.2 O4: a preallocated
// dp_packet, not an mmap per packet) — a warm packet costs no heap
// allocation, the way a DPDK mbuf or an AF_XDP umem frame does not.
//
// Ownership is per thread: each thread draws from and returns to its
// own cache with plain loads and stores, no lock and no guard on the
// hot path. A buffer freed on another thread than the one that drew it
// lands in the freeing thread's cache. Each cache holds at most
// kBlockCacheDepth blocks per class; blocks past that go back to the
// heap, and a thread's cache is drained to the heap when it exits.
//
// Under AddressSanitizer, cached blocks and the tail of every block
// past its requested size are poisoned, so a read past a packet's
// buffer or through a buffer already recycled is still reported.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define OVSX_BUFFER_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define OVSX_BUFFER_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define OVSX_BUFFER_POISON(p, n) ((void)(p), (void)(n))
#define OVSX_BUFFER_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace ovsx::net {

// Block classes. The small one fits a 64 B frame behind the default
// 128 B headroom; the large one fits a 1,500 B frame plus headroom and
// encapsulation, or a whole 2 KiB umem chunk. Larger buffers (TSO
// super-segments) come from the heap at their exact size.
inline constexpr std::size_t kSmallBlock = 256;
inline constexpr std::size_t kLargeBlock = 2304;
// Blocks a thread keeps per class: a few 32-packet bursts' worth.
inline constexpr std::uint32_t kBlockCacheDepth = 256;

struct Buffer {
    std::uint8_t* data = nullptr;
    std::size_t cap = 0;
};

// A buffer of at least `n` uninitialised bytes. Under ASan, bytes past
// `n` stay poisoned until buffer_resize() exposes them.
Buffer buffer_alloc(std::size_t n);

// Returns `buf` to the calling thread's cache, or to the heap.
void buffer_free(Buffer buf) noexcept;

// Moves the end of the requested region of `buf` from `from` to `to`
// (both <= buf.cap): the ASan poison boundary. No-op otherwise.
inline void buffer_resize(const Buffer& buf, std::size_t from, std::size_t to)
{
    if (to > from) {
        OVSX_BUFFER_UNPOISON(buf.data + from, to - from);
    } else if (to < from) {
        OVSX_BUFFER_POISON(buf.data + to, from - to);
    }
}

// Blocks of class `block_size` cached by the calling thread.
std::size_t buffer_cached(std::size_t block_size);

} // namespace ovsx::net

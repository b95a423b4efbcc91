#include "net/packet_buffer.h"

#include <new>

namespace ovsx::net {

namespace {

constexpr int kClasses = 2;
constexpr std::size_t kBlockSize[kClasses] = {kSmallBlock, kLargeBlock};

// -1 for a heap-sized request or buffer.
int class_for_request(std::size_t n)
{
    if (n <= kSmallBlock) return 0;
    if (n <= kLargeBlock) return 1;
    return -1;
}

int class_of(std::size_t cap)
{
    if (cap == kSmallBlock) return 0;
    if (cap == kLargeBlock) return 1;
    return -1;
}

// A LIFO of free blocks per class. Constant-initialised with a trivial
// destructor, so the hot path is a plain TLS access; `depth` stays 0
// until the thread registers its exit drain (on its first miss), which
// routes the first free through the cold path too.
struct BlockCache {
    std::uint8_t* blocks[kClasses][kBlockCacheDepth];
    std::uint32_t count[kClasses];
    std::uint32_t depth;
};

thread_local constinit BlockCache t_cache{};
// Set once the thread's cache was drained at exit: later frees (from
// thread_local or static destructors that run after the drain) go
// straight to the heap.
thread_local constinit bool t_exited = false;

void heap_free(std::uint8_t* p, std::size_t cap) noexcept
{
    OVSX_BUFFER_UNPOISON(p, cap);
    ::operator delete(p);
}

struct CacheDrain {
    ~CacheDrain()
    {
        BlockCache& c = t_cache;
        for (int cls = 0; cls < kClasses; ++cls) {
            while (c.count[cls] > 0) heap_free(c.blocks[cls][--c.count[cls]], kBlockSize[cls]);
        }
        c.depth = 0;
        t_exited = true;
    }
};

// The cold half: registers the thread-exit drain once per thread.
[[gnu::noinline, gnu::cold]] void register_drain()
{
    if (t_exited) return;
    thread_local CacheDrain drain;
    (void)drain;
    t_cache.depth = kBlockCacheDepth;
}

} // namespace

Buffer buffer_alloc(std::size_t n)
{
    const int cls = class_for_request(n);
    if (cls < 0) return {static_cast<std::uint8_t*>(::operator new(n)), n};
    BlockCache& c = t_cache;
    const std::size_t size = kBlockSize[cls];
    std::uint8_t* p;
    if (c.count[cls] > 0) [[likely]] {
        p = c.blocks[cls][--c.count[cls]];
        OVSX_BUFFER_UNPOISON(p, n);
    } else {
        if (c.depth == 0) register_drain();
        p = static_cast<std::uint8_t*>(::operator new(size));
        OVSX_BUFFER_POISON(p + n, size - n);
    }
    return {p, size};
}

void buffer_free(Buffer buf) noexcept
{
    if (!buf.data) return;
    const int cls = class_of(buf.cap);
    if (cls >= 0) {
        BlockCache& c = t_cache;
        if (c.count[cls] >= c.depth) [[unlikely]] {
            if (c.depth == 0) register_drain();
            if (c.count[cls] >= c.depth) {
                heap_free(buf.data, buf.cap);
                return;
            }
        }
        OVSX_BUFFER_POISON(buf.data, buf.cap);
        c.blocks[cls][c.count[cls]++] = buf.data;
        return;
    }
    heap_free(buf.data, buf.cap);
}

std::size_t buffer_cached(std::size_t block_size)
{
    const int cls = class_of(block_size);
    return cls < 0 ? 0 : t_cache.count[cls];
}

} // namespace ovsx::net

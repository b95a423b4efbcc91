// DPDK-style mbuf mempool: a fixed-size pool of packet buffers that
// real DPDK carves out of hugepage memory. Part of what makes OVS-DPDK
// heavyweight to deploy (§2.2.1: strict system requirements, dedicated
// memory) and fast to run. The model keeps the pool's geometry and
// index free list only: no packet bytes live in the pool (net::Packet
// owns them), so it allocates no buffer memory, and `memory/show`
// reports the `count x buf_size` bytes a real pool would reserve.
//
// Every in-flight mbuf is registered with the san table audit
// ("mempool.mbuf"): freeing an mbuf that is not outstanding (double
// free / free of a foreign index) is a violation, and `san_check`
// cross-checks the audited population against the pool's own
// accounting. Occupancy is surfaced through obs `memory/show`.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/appctl.h"
#include "san/audit.h"
#include "san/lockset.h"
#include "sync/mutex.h"

namespace ovsx::dpdk {

struct Mbuf {
    std::uint32_t index = 0; // position in the pool
};

// Concurrency: the free list is guarded by one capability-annotated
// mutex. Real DPDK uses per-lcore caches over a lock-free ring; this
// model keeps the single-lock shape (alloc/free are not the modeled
// hot cost) and the annotations mark exactly what a per-PMD cache
// split would have to shard.
class Mempool {
public:
    Mempool(std::uint32_t count, std::uint32_t buf_size)
        : count_(count), buf_size_(buf_size), san_scope_(san::new_scope())
    {
        if (count == 0 || buf_size < 128) throw std::invalid_argument("Mempool: bad geometry");
        free_.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) free_.push_back(count - 1 - i);
        obs_token_ = obs::memory_register("dpdk.mempool", [this] {
            obs::Value v = obs::Value::object();
            v.set("capacity", capacity());
            v.set("available", available());
            v.set("in_flight", capacity() - available());
            v.set("buf_size", this->buf_size());
            v.set("bytes_reserved", static_cast<std::uint64_t>(capacity()) * this->buf_size());
            return v;
        });
    }

    ~Mempool()
    {
        obs::memory_unregister(obs_token_);
        // Teardown with mbufs still outstanding is a leak.
        san::audit_expect_empty(san_scope_, "mempool.mbuf", OVSX_SITE);
        san::audit_clear(san_scope_, "mempool.mbuf");
    }

    Mempool(const Mempool&) = delete;
    Mempool& operator=(const Mempool&) = delete;

    std::uint32_t capacity() const { return count_; }
    std::uint32_t available() const OVSX_EXCLUDES(mu_)
    {
        sync::LockGuard guard(mu_);
        return static_cast<std::uint32_t>(free_.size());
    }
    std::uint32_t buf_size() const { return buf_size_; }

    std::optional<Mbuf> alloc() OVSX_EXCLUDES(mu_)
    {
        sync::LockGuard guard(mu_);
        OVSX_SAN_ACCESS_AT(this, "dpdk.mempool", true);
        if (free_.empty()) return std::nullopt;
        const std::uint32_t idx = free_.back();
        free_.pop_back();
        san::audit_add(san_scope_, "mempool.mbuf", idx, OVSX_SITE);
        return Mbuf{idx};
    }

    void free(const Mbuf& mbuf) OVSX_EXCLUDES(mu_)
    {
        if (mbuf.index >= count_) throw std::out_of_range("Mempool: bad mbuf");
        sync::LockGuard guard(mu_);
        OVSX_SAN_ACCESS_AT(this, "dpdk.mempool", true);
        // Freeing an index that is not outstanding (double free) fires here.
        san::audit_remove(san_scope_, "mempool.mbuf", mbuf.index, OVSX_SITE);
        free_.push_back(mbuf.index);
    }

    // Audit checkpoint: outstanding mbufs must match the audited set.
    void san_check(san::Site site) const OVSX_EXCLUDES(mu_)
    {
        sync::LockGuard guard(mu_);
        san::audit_expect_size(san_scope_, "mempool.mbuf",
                               static_cast<std::size_t>(count_) - free_.size(), site);
    }

private:
    std::uint32_t count_;
    std::uint32_t buf_size_;
    mutable sync::Mutex mu_{"dpdk.mempool"};
    std::vector<std::uint32_t> free_ OVSX_GUARDED_BY(mu_);
    std::uint64_t san_scope_;
    std::uint64_t obs_token_ = 0;
};

} // namespace ovsx::dpdk

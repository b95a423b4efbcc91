#include "ovs/emc.h"

#include <stdexcept>

namespace ovsx::ovs {

Emc::Emc(std::uint32_t entries) : entries_(entries), mask_(entries - 1)
{
    if (entries == 0 || (entries & mask_) != 0) {
        throw std::invalid_argument("Emc: entries must be a power of two");
    }
    // The table itself is materialized on first insert: an OVS-default
    // table is ~2 MB of zeroed entries, and the differential harness
    // constructs hundreds of short-lived datapaths (and immediately
    // replaces the default with a smaller table via set_emc_entries),
    // so eager allocation dominated soak profiles.
}

CachedFlow* Emc::lookup(const net::FlowKey& key, std::uint64_t hash)
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true); // mutates stats + evicts dead ways
    if (table_.empty()) {
        ++misses_;
        return nullptr;
    }
    const std::size_t base = static_cast<std::size_t>(hash & mask_) * kWays;
    for (int w = 0; w < kWays; ++w) {
        Entry& e = table_[base + static_cast<std::size_t>(w)];
        if (e.valid && e.hash == hash && e.key == key) {
            if (e.flow->dead) {
                e.valid = false;
                --occupancy_;
                continue;
            }
            ++hits_;
            return e.flow.get();
        }
    }
    ++misses_;
    return nullptr;
}

CachedFlowPtr Emc::lookup_ref(const net::FlowKey& key, std::uint64_t hash)
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true);
    if (table_.empty()) {
        ++misses_;
        return nullptr;
    }
    const std::size_t base = static_cast<std::size_t>(hash & mask_) * kWays;
    for (int w = 0; w < kWays; ++w) {
        Entry& e = table_[base + static_cast<std::size_t>(w)];
        if (e.valid && e.hash == hash && e.key == key) {
            if (e.flow->dead) {
                e.valid = false;
                --occupancy_;
                continue;
            }
            ++hits_;
            return e.flow;
        }
    }
    ++misses_;
    return nullptr;
}

void Emc::insert(const net::FlowKey& key, std::uint64_t hash, CachedFlowPtr flow)
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true);
    if (table_.empty()) table_.resize(static_cast<std::size_t>(entries_) * kWays);
    const std::size_t base = static_cast<std::size_t>(hash & mask_) * kWays;
    // Prefer an invalid way; otherwise evict the way with fewer hits.
    std::size_t victim = base;
    for (int w = 0; w < kWays; ++w) {
        Entry& e = table_[base + static_cast<std::size_t>(w)];
        if (!e.valid) {
            victim = base + static_cast<std::size_t>(w);
            break;
        }
        if (e.flow->hits < table_[victim].flow->hits) {
            victim = base + static_cast<std::size_t>(w);
        }
    }
    Entry& e = table_[victim];
    if (!e.valid) ++occupancy_;
    e.valid = true;
    e.hash = hash;
    e.key = key;
    e.flow = std::move(flow);
}

std::size_t Emc::sweep()
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true);
    std::size_t swept = 0;
    for (auto& e : table_) {
        if (e.valid && e.flow->dead) {
            e.valid = false;
            e.flow.reset();
            --occupancy_;
            ++swept;
        }
    }
    return swept;
}

void Emc::clear()
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true);
    for (auto& e : table_) {
        e.valid = false;
        e.flow.reset();
    }
    occupancy_ = 0;
}

void Emc::resize(std::uint32_t entries)
{
    if (entries == 0 || (entries & (entries - 1)) != 0) {
        throw std::invalid_argument("Emc: entries must be a power of two");
    }
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.emc", true);
    entries_ = entries;
    mask_ = entries - 1;
    table_.clear(); // re-materialized lazily on first insert
    hits_ = 0;
    misses_ = 0;
    occupancy_ = 0;
}

std::uint32_t Emc::capacity() const
{
    sync::LockGuard guard(mu_);
    return entries_;
}

std::uint64_t Emc::hits() const
{
    sync::LockGuard guard(mu_);
    return hits_;
}

std::uint64_t Emc::misses() const
{
    sync::LockGuard guard(mu_);
    return misses_;
}

std::uint32_t Emc::occupancy() const
{
    sync::LockGuard guard(mu_);
    return occupancy_;
}

} // namespace ovsx::ovs

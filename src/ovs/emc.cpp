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

const Emc::Entry* Emc::probe(const net::FlowKey& key, std::uint64_t hash)
{
    if (!table_.empty()) {
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
                return &e;
            }
        }
    }
    ++misses_;
    return nullptr;
}

CachedFlow* Emc::lookup(const net::FlowKey& key, std::uint64_t hash)
{
    const Entry* e = probe(key, hash);
    return e ? e->flow.get() : nullptr;
}

CachedFlowPtr Emc::lookup_ref(const net::FlowKey& key, std::uint64_t hash)
{
    const Entry* e = probe(key, hash);
    return e ? e->flow : nullptr;
}

void Emc::insert(const net::FlowKey& key, std::uint64_t hash, CachedFlowPtr flow)
{
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
    for (auto& e : table_) {
        e.valid = false;
        e.flow.reset();
    }
    occupancy_ = 0;
}

} // namespace ovsx::ovs

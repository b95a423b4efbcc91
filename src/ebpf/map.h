// eBPF maps: the only mutable state an eBPF program may keep.
//
// Hash and Array maps hold opaque byte values; DevMap and XskMap hold
// redirect targets that the simulated kernel interprets (an interface
// index, or an AF_XDP socket binding).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "san/lockset.h"
#include "sync/mutex.h"

namespace ovsx::ebpf {

enum class MapType { Hash, Array, DevMap, XskMap };

const char* to_string(MapType t);

// Concurrency: one capability-annotated mutex per map. The XDP fast
// path and the control plane (ovs-ofctl-style map updates, snapshot
// diffing) may touch a map concurrently; the immutable shape fields
// (type/name/sizes) are lock-free, everything mutable is guarded.
// lookup() returns a pointer into the map; it stays valid until the
// entry is erased, but reading it after unlock races with concurrent
// update() by design (exactly the bpf map contract).
class Map {
public:
    Map(MapType type, std::string name, std::uint32_t key_size, std::uint32_t value_size,
        std::uint32_t max_entries);

    MapType type() const { return type_; }
    const std::string& name() const { return name_; }
    std::uint32_t key_size() const { return key_size_; }
    std::uint32_t value_size() const { return value_size_; }
    std::uint32_t max_entries() const { return max_entries_; }
    std::size_t size() const OVSX_EXCLUDES(mu_);

    // Returns a pointer to the stored value, or nullptr when absent.
    // The pointer stays valid until the entry is deleted or the map is
    // destroyed: values live in slabs that rehashing never moves.
    OVSX_HOT std::uint8_t* lookup(std::span<const std::uint8_t> key) OVSX_EXCLUDES(mu_);

    // Inserts or replaces. Returns false when the map is full or the
    // key/value sizes mismatch.
    bool update(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value)
        OVSX_EXCLUDES(mu_);

    bool erase(std::span<const std::uint8_t> key) OVSX_EXCLUDES(mu_);

    // Convenience typed accessors for fixed-width keys/values.
    template <typename K, typename V> bool update_kv(const K& key, const V& value)
    {
        static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
        return update({reinterpret_cast<const std::uint8_t*>(&key), sizeof key},
                      {reinterpret_cast<const std::uint8_t*>(&value), sizeof value});
    }
    template <typename V, typename K> std::optional<V> lookup_kv(const K& key)
    {
        static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
        auto* p = lookup({reinterpret_cast<const std::uint8_t*>(&key), sizeof key});
        if (!p) return std::nullopt;
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    // Deterministically ordered (key, value) dump — the bpf_map_get_next_key
    // iteration userspace tools rely on, used here for state diffing.
    // Array maps dump every slot with its 4-byte index as the key.
    std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> snapshot() const
        OVSX_EXCLUDES(mu_);

private:
    // Hash storage: open addressing with linear probing over a
    // power-of-two array of fixed-size slots. Slot word 0 holds the
    // entry's tag (0 empty, 1 tombstone, else upper hash bits) in its
    // low half and its value index in its high half; the key follows
    // inline, zero-padded to whole words. Erase leaves a tombstone; an
    // insert that would push live entries plus tombstones past 3/4 of
    // the slots rehashes, doubling the array when live entries fill
    // half of it. Values live in fixed-size slabs that are never moved
    // or freed before the map is, so rehashing moves slots but never
    // values.
    const std::uint64_t* find_slot(std::span<const std::uint8_t> key, std::uint64_t hash) const
        OVSX_REQUIRES(mu_);
    void insert_slot(std::span<const std::uint8_t> key, std::uint64_t hash,
                     std::uint32_t value_index) OVSX_REQUIRES(mu_);
    void rehash() OVSX_REQUIRES(mu_);
    std::uint32_t alloc_value() OVSX_REQUIRES(mu_);
    std::uint8_t* value_at(std::uint32_t index) const OVSX_REQUIRES(mu_);

    MapType type_;
    std::string name_;
    std::uint32_t key_size_;
    std::uint32_t value_size_;
    std::uint32_t max_entries_;
    std::uint32_t slot_words_; // 1 + key words
    std::uint32_t value_words_;
    mutable sync::Mutex mu_{"ebpf.map"};

    std::vector<std::uint64_t> slots_ OVSX_GUARDED_BY(mu_);
    std::size_t live_ OVSX_GUARDED_BY(mu_) = 0;
    std::size_t tombstones_ OVSX_GUARDED_BY(mu_) = 0;
    std::vector<std::unique_ptr<std::uint64_t[]>> slabs_ OVSX_GUARDED_BY(mu_);
    std::vector<std::uint32_t> free_values_ OVSX_GUARDED_BY(mu_);
    std::uint32_t next_value_ OVSX_GUARDED_BY(mu_) = 0;
    // Array storage: one contiguous allocation, always fully populated.
    std::vector<std::uint8_t> array_ OVSX_GUARDED_BY(mu_);
};

using MapPtr = std::shared_ptr<Map>;

} // namespace ovsx::ebpf

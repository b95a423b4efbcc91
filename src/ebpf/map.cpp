#include "ebpf/map.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ovsx::ebpf {

const char* to_string(MapType t)
{
    switch (t) {
    case MapType::Hash: return "hash";
    case MapType::Array: return "array";
    case MapType::DevMap: return "devmap";
    case MapType::XskMap: return "xskmap";
    }
    return "?";
}

namespace {

constexpr std::size_t kMinSlots = 16;
constexpr std::uint32_t kSlabShift = 8; // 256 values per slab
constexpr std::uint32_t kEmpty = 0;
constexpr std::uint32_t kTombstone = 1;

std::uint32_t words_for(std::uint32_t bytes) { return (bytes + 7) / 8; }

// Word `i` of a key, zero-extended past its end: the same value the
// zero-padded copy in a slot holds.
std::uint64_t key_word(std::span<const std::uint8_t> key, std::size_t i)
{
    const std::uint8_t* p = key.data() + i * 8;
    const std::size_t n = key.size() - i * 8;
    std::uint64_t w = 0;
    if (n >= 8) {
        std::memcpy(&w, p, 8);
        return w;
    }
    std::size_t at = 0;
    if (n & 4) {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        w = v;
        at = 4;
    }
    if (n & 2) {
        std::uint16_t v;
        std::memcpy(&v, p + at, 2);
        w |= static_cast<std::uint64_t>(v) << (8 * at);
        at += 2;
    }
    if (n & 1) w |= static_cast<std::uint64_t>(p[at]) << (8 * at);
    return w;
}

// Word-at-a-time hash of a fixed-size key: each word is folded in with
// a multiply and a xor-shift, then the result is finalised so both the
// low bits (slot index) and the high bits (tag) depend on every byte.
std::uint64_t hash_key(std::span<const std::uint8_t> key)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    std::uint64_t h = kMul ^ key.size();
    for (std::size_t i = 0, n = words_for(static_cast<std::uint32_t>(key.size())); i < n; ++i) {
        h = (h ^ key_word(key, i)) * kMul;
        h ^= h >> 32;
    }
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return h;
}

bool key_equal(const std::uint64_t* slot, std::span<const std::uint8_t> key, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i) {
        if (slot[1 + i] != key_word(key, i)) return false;
    }
    return true;
}

// Upper hash bits with bit 1 forced on, so a tag is never kEmpty or
// kTombstone.
std::uint32_t tag_of(std::uint64_t hash) { return static_cast<std::uint32_t>(hash >> 32) | 2u; }

std::uint32_t slot_tag(const std::uint64_t* slot) { return static_cast<std::uint32_t>(slot[0]); }
bool slot_live(const std::uint64_t* slot) { return slot_tag(slot) > kTombstone; }
std::uint32_t slot_value(const std::uint64_t* slot)
{
    return static_cast<std::uint32_t>(slot[0] >> 32);
}
std::span<const std::uint8_t> slot_key(const std::uint64_t* slot, std::uint32_t key_size)
{
    return {reinterpret_cast<const std::uint8_t*>(slot + 1), key_size};
}

} // namespace

Map::Map(MapType type, std::string name, std::uint32_t key_size, std::uint32_t value_size,
         std::uint32_t max_entries)
    : type_(type), name_(std::move(name)), key_size_(key_size), value_size_(value_size),
      max_entries_(max_entries), slot_words_(1 + words_for(key_size)),
      value_words_(words_for(value_size))
{
    if (key_size_ == 0 || value_size_ == 0 || max_entries_ == 0) {
        throw std::invalid_argument("Map: zero-sized key/value/capacity");
    }
    if (type_ == MapType::Array || type_ == MapType::DevMap || type_ == MapType::XskMap) {
        if (key_size_ != 4) throw std::invalid_argument("Map: array-family maps need u32 keys");
        array_.assign(static_cast<std::size_t>(max_entries_) * value_size_, 0);
    }
}

std::size_t Map::size() const
{
    sync::LockGuard guard(mu_);
    if (type_ == MapType::Hash) return live_;
    return max_entries_;
}

const std::uint64_t* Map::find_slot(std::span<const std::uint8_t> key, std::uint64_t hash) const
{
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() / slot_words_ - 1;
    const std::uint32_t tag = tag_of(hash);
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const std::uint64_t* slot = slots_.data() + i * slot_words_;
        const std::uint32_t t = slot_tag(slot);
        if (t == kEmpty) return nullptr;
        if (t == tag && key_equal(slot, key, slot_words_ - 1)) return slot;
    }
}

// Places a key known to be absent into the first free or tombstoned
// slot of its probe sequence.
void Map::insert_slot(std::span<const std::uint8_t> key, std::uint64_t hash,
                      std::uint32_t value_index)
{
    const std::size_t mask = slots_.size() / slot_words_ - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        std::uint64_t* slot = slots_.data() + i * slot_words_;
        if (slot_live(slot)) continue;
        if (slot_tag(slot) == kTombstone) --tombstones_;
        slot[0] = (static_cast<std::uint64_t>(value_index) << 32) | tag_of(hash);
        std::fill(slot + 1, slot + slot_words_, 0);
        std::memcpy(slot + 1, key.data(), key_size_);
        ++live_;
        return;
    }
}

void Map::rehash()
{
    std::size_t capacity = slots_.size() / slot_words_;
    if (capacity == 0) {
        capacity = kMinSlots;
    } else if ((live_ + 1) * 2 > capacity) {
        capacity *= 2;
    } // else: same size, which drops the tombstones
    const std::vector<std::uint64_t> old =
        std::exchange(slots_, std::vector<std::uint64_t>(capacity * slot_words_, 0));
    live_ = 0;
    tombstones_ = 0;
    for (std::size_t off = 0; off < old.size(); off += slot_words_) {
        const std::uint64_t* slot = old.data() + off;
        if (!slot_live(slot)) continue;
        const auto key = slot_key(slot, key_size_);
        insert_slot(key, hash_key(key), slot_value(slot));
    }
}

std::uint32_t Map::alloc_value()
{
    if (!free_values_.empty()) {
        const std::uint32_t index = free_values_.back();
        free_values_.pop_back();
        return index;
    }
    if (next_value_ == (slabs_.size() << kSlabShift)) {
        slabs_.push_back(std::make_unique<std::uint64_t[]>(
            static_cast<std::size_t>(value_words_) << kSlabShift));
    }
    return next_value_++;
}

std::uint8_t* Map::value_at(std::uint32_t index) const
{
    const std::uint32_t in_slab = index & ((1u << kSlabShift) - 1);
    return reinterpret_cast<std::uint8_t*>(slabs_[index >> kSlabShift].get() +
                                           static_cast<std::size_t>(in_slab) * value_words_);
}

std::uint8_t* Map::lookup(std::span<const std::uint8_t> key)
{
    if (key.size() != key_size_) return nullptr;
    sync::LockGuard guard(mu_);
    // A write mark: the program may write through the returned pointer.
    OVSX_SAN_ACCESS_AT(this, "ebpf.map", true);
    if (type_ == MapType::Hash) {
        const std::uint64_t* slot = find_slot(key, hash_key(key));
        return slot ? value_at(slot_value(slot)) : nullptr;
    }
    std::uint32_t idx;
    std::memcpy(&idx, key.data(), sizeof idx);
    if (idx >= max_entries_) return nullptr;
    return array_.data() + static_cast<std::size_t>(idx) * value_size_;
}

bool Map::update(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value)
{
    if (key.size() != key_size_ || value.size() != value_size_) return false;
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ebpf.map", true);
    if (type_ == MapType::Hash) {
        const std::uint64_t hash = hash_key(key);
        if (const std::uint64_t* slot = find_slot(key, hash)) {
            std::memcpy(value_at(slot_value(slot)), value.data(), value_size_);
            return true;
        }
        if (live_ >= max_entries_) return false;
        if ((live_ + tombstones_ + 1) * 4 > (slots_.size() / slot_words_) * 3) rehash();
        const std::uint32_t index = alloc_value();
        std::memcpy(value_at(index), value.data(), value_size_);
        insert_slot(key, hash, index);
        return true;
    }
    std::uint32_t idx;
    std::memcpy(&idx, key.data(), sizeof idx);
    if (idx >= max_entries_) return false;
    std::memcpy(array_.data() + static_cast<std::size_t>(idx) * value_size_, value.data(),
                value_size_);
    return true;
}

std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> Map::snapshot() const
{
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ebpf.map", false);
    std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> out;
    if (type_ == MapType::Hash) {
        out.reserve(live_);
        for (std::size_t off = 0; off < slots_.size(); off += slot_words_) {
            const std::uint64_t* slot = slots_.data() + off;
            if (!slot_live(slot)) continue;
            const auto key = slot_key(slot, key_size_);
            const std::uint8_t* v = value_at(slot_value(slot));
            out.emplace_back(std::vector<std::uint8_t>(key.begin(), key.end()),
                             std::vector<std::uint8_t>(v, v + value_size_));
        }
    } else {
        out.reserve(max_entries_);
        for (std::uint32_t idx = 0; idx < max_entries_; ++idx) {
            const auto* base = array_.data() + static_cast<std::size_t>(idx) * value_size_;
            std::vector<std::uint8_t> k(sizeof idx);
            std::memcpy(k.data(), &idx, sizeof idx);
            out.emplace_back(std::move(k), std::vector<std::uint8_t>(base, base + value_size_));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool Map::erase(std::span<const std::uint8_t> key)
{
    if (key.size() != key_size_) return false;
    sync::LockGuard guard(mu_);
    OVSX_SAN_ACCESS_AT(this, "ebpf.map", true);
    if (type_ == MapType::Hash) {
        auto* slot = const_cast<std::uint64_t*>(find_slot(key, hash_key(key)));
        if (!slot) return false;
        free_values_.push_back(slot_value(slot));
        slot[0] = kTombstone;
        --live_;
        ++tombstones_;
        return true;
    }
    std::uint32_t idx;
    std::memcpy(&idx, key.data(), sizeof idx);
    if (idx >= max_entries_) return false;
    std::memset(array_.data() + static_cast<std::size_t>(idx) * value_size_, 0, value_size_);
    return true;
}

} // namespace ovsx::ebpf

// The slot table under every tuple-space-search subtable (megaflow
// cache, ofproto classifier): one flat open-addressed
// array of {hash, value} slots. It holds the entries of one mask, each
// with its 64-bit masked hash, and leaves the key comparison to the
// caller, who knows the mask.
//
// - `T` is a pointer type (a raw pointer or a shared_ptr); `T{}` marks
//   an empty slot.
// - The array is a power of two of slots, at most half full, so every
//   probe run ends at an empty slot.
// - An entry's home slot is its hash modulo the array size.
// - Linear probing. An insert goes to the end of its probe run, so the
//   entries of one hash lie along their run in add order.
// - Growth doubles the array and re-inserts from just past an empty
//   slot, so no run is split and entries of one hash keep their add
//   order (ofproto's tie rule needs it). Expiry (retain) rebuilds the
//   table once in the same way, keeping the survivors.
// - Erase closes the hole by backward shift: no tombstones.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sync/annotations.h"

namespace ovsx::net {

template <typename T> class SlotTable {
public:
    static constexpr std::size_t kMinSlots = 8;

    SlotTable() : slots_(kMinSlots) {}

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    // The first value along the probe run of `h`, in run order, whose
    // stored hash is `h` and that `match` accepts; null if none. A miss
    // reads slots only, and `match` sees a value only on an equal hash.
    // A `match` that never accepts visits the whole run.
    template <typename Match> const T* find(std::uint64_t h, Match&& match) const
    {
        const std::size_t i = probe(h, match);
        return i == kNone ? nullptr : &slots_[i].value;
    }
    template <typename Match> T* find(std::uint64_t h, Match&& match)
    {
        const std::size_t i = probe(h, match);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    void insert(std::uint64_t h, T value)
    {
        if (2 * (size_ + 1) > slots_.size()) rebuild(2 * slots_.size(), empty_slot());
        place(h, std::move(value));
    }

    // Removes the value that find(h, match) returns and returns it; T{}
    // if there is none.
    template <typename Match> T erase(std::uint64_t h, Match&& match)
    {
        std::size_t i = probe(h, match);
        if (i == kNone) return T{};
        T gone = std::move(slots_[i].value);
        for (std::size_t j = (i + 1) & last_; slots_[j].value; j = (j + 1) & last_) {
            // The entry at j stays when its home lies cyclically in
            // (i, j]: moving it to the hole would put it before its home.
            const std::size_t k = home(slots_[j].hash);
            if (i <= j ? (i < k && k <= j) : (i < k || k <= j)) continue;
            slots_[i] = std::move(slots_[j]);
            i = j;
        }
        slots_[i] = Slot{};
        --size_;
        return gone;
    }

    // Keeps the values that `keep` accepts (it sees each value once) and
    // drops the rest, rebuilding the table once if any was dropped.
    // Returns how many were dropped.
    template <typename Keep> std::size_t retain(Keep&& keep)
    {
        const std::size_t start = empty_slot(); // empty before any drop
        std::size_t dropped = 0;
        for (Slot& s : slots_) {
            if (s.value && !keep(s.value)) {
                s.value = T{};
                ++dropped;
            }
        }
        if (dropped > 0) rebuild(slots_.size(), start);
        return dropped;
    }

    // Visits every entry as fn(hash, value), in slot order.
    template <typename Fn> void for_each(Fn&& fn) const
    {
        for (const Slot& s : slots_) {
            if (s.value) fn(s.hash, s.value);
        }
    }

private:
    struct Slot {
        std::uint64_t hash = 0;
        T value{};
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t home(std::uint64_t h) const { return h & last_; }

    // The one probe: visits the run of `h` in order and returns the index
    // of the first slot holding hash `h` and a value `match` accepts.
    template <typename Match>
    OVSX_NO_ALLOC std::size_t probe(std::uint64_t h, Match& match) const
    {
        for (std::size_t i = home(h); slots_[i].value; i = (i + 1) & last_) {
            if (slots_[i].hash == h && match(slots_[i].value)) return i;
        }
        return kNone;
    }

    // The first empty slot; one exists, the array being at most half full.
    std::size_t empty_slot() const
    {
        std::size_t i = 0;
        while (slots_[i].value) ++i;
        return i;
    }

    // Places an entry at the end of its probe run.
    void place(std::uint64_t h, T value)
    {
        std::size_t i = home(h);
        while (slots_[i].value) i = (i + 1) & last_;
        slots_[i] = Slot{h, std::move(value)};
        ++size_;
    }

    // Re-inserts every entry into `capacity` slots, visiting the old
    // array from just past the empty slot `start`: each run is then
    // visited whole and in order, so entries of one hash keep their order.
    void rebuild(std::size_t capacity, std::size_t start)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        const std::size_t old_last = last_;
        last_ = capacity - 1;
        size_ = 0;
        for (std::size_t k = 1; k <= old.size(); ++k) {
            Slot& s = old[(start + k) & old_last];
            if (s.value) place(s.hash, std::move(s.value));
        }
    }

    std::vector<Slot> slots_;
    std::size_t last_ = kMinSlots - 1; // slots_.size() - 1, kept for the probe
    std::size_t size_ = 0;
};

} // namespace ovsx::net

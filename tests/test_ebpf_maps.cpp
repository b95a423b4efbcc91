#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "ebpf/map.h"

namespace ovsx::ebpf {
namespace {

TEST(Map, HashBasics)
{
    Map m(MapType::Hash, "h", 4, 8, 4);
    const std::uint32_t k1 = 1, k2 = 2;
    EXPECT_TRUE(m.update_kv(k1, std::uint64_t{100}));
    EXPECT_TRUE(m.update_kv(k2, std::uint64_t{200}));
    EXPECT_EQ(m.lookup_kv<std::uint64_t>(k1).value(), 100u);
    EXPECT_EQ(m.lookup_kv<std::uint64_t>(k2).value(), 200u);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_FALSE(m.lookup_kv<std::uint64_t>(std::uint32_t{3}).has_value());
}

TEST(Map, HashUpdateReplaces)
{
    Map m(MapType::Hash, "h", 4, 8, 4);
    const std::uint32_t k = 7;
    m.update_kv(k, std::uint64_t{1});
    m.update_kv(k, std::uint64_t{2});
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.lookup_kv<std::uint64_t>(k).value(), 2u);
}

TEST(Map, HashCapacityEnforced)
{
    Map m(MapType::Hash, "h", 4, 4, 2);
    const std::uint32_t a = 1, b = 2, c = 3;
    EXPECT_TRUE(m.update_kv(a, std::uint32_t{1}));
    EXPECT_TRUE(m.update_kv(b, std::uint32_t{2}));
    EXPECT_FALSE(m.update_kv(c, std::uint32_t{3})); // full
    // Replacing an existing key still works at capacity.
    EXPECT_TRUE(m.update_kv(a, std::uint32_t{9}));
}

TEST(Map, HashErase)
{
    Map m(MapType::Hash, "h", 4, 4, 4);
    const std::uint32_t k = 5;
    m.update_kv(k, std::uint32_t{1});
    EXPECT_TRUE(m.erase({reinterpret_cast<const std::uint8_t*>(&k), 4}));
    EXPECT_FALSE(m.erase({reinterpret_cast<const std::uint8_t*>(&k), 4}));
    EXPECT_FALSE(m.lookup_kv<std::uint32_t>(k).has_value());
}

TEST(Map, ValuePointerStableAcrossInserts)
{
    // Hash values are boxed: pointers stay valid while other keys churn
    // (eBPF programs hold value pointers across helper calls).
    Map m(MapType::Hash, "h", 4, 4, 1024);
    const std::uint32_t k = 42;
    m.update_kv(k, std::uint32_t{7});
    auto* p = m.lookup({reinterpret_cast<const std::uint8_t*>(&k), 4});
    ASSERT_NE(p, nullptr);
    for (std::uint32_t i = 100; i < 600; ++i) m.update_kv(i, i);
    auto* p2 = m.lookup({reinterpret_cast<const std::uint8_t*>(&k), 4});
    EXPECT_EQ(p, p2);
}

TEST(Map, ArraySemantics)
{
    Map m(MapType::Array, "a", 4, 4, 8);
    // Arrays are pre-populated with zeroes; every slot "exists".
    const std::uint32_t k0 = 0, k7 = 7, k8 = 8;
    EXPECT_NE(m.lookup({reinterpret_cast<const std::uint8_t*>(&k0), 4}), nullptr);
    EXPECT_EQ(m.lookup_kv<std::uint32_t>(k0).value(), 0u);
    EXPECT_TRUE(m.update_kv(k7, std::uint32_t{70}));
    EXPECT_EQ(m.lookup_kv<std::uint32_t>(k7).value(), 70u);
    // Out of range is a miss, not a crash.
    EXPECT_EQ(m.lookup({reinterpret_cast<const std::uint8_t*>(&k8), 4}), nullptr);
    EXPECT_FALSE(m.update_kv(k8, std::uint32_t{1}));
}

TEST(Map, ArrayEraseZeroes)
{
    Map m(MapType::DevMap, "d", 4, 4, 4);
    const std::uint32_t k = 2;
    m.update_kv(k, std::uint32_t{42});
    EXPECT_TRUE(m.erase({reinterpret_cast<const std::uint8_t*>(&k), 4}));
    EXPECT_EQ(m.lookup_kv<std::uint32_t>(k).value(), 0u); // zeroed, still present
}

TEST(Map, KeySizeMismatchRejected)
{
    Map m(MapType::Hash, "h", 8, 4, 4);
    const std::uint32_t small = 1;
    EXPECT_EQ(m.lookup({reinterpret_cast<const std::uint8_t*>(&small), 4}), nullptr);
    EXPECT_FALSE(m.update({reinterpret_cast<const std::uint8_t*>(&small), 4},
                          {reinterpret_cast<const std::uint8_t*>(&small), 4}));
}

TEST(Map, ArrayFamilyRequiresU32Keys)
{
    EXPECT_THROW(Map(MapType::Array, "a", 8, 4, 4), std::invalid_argument);
    EXPECT_THROW(Map(MapType::XskMap, "x", 2, 4, 4), std::invalid_argument);
    EXPECT_NO_THROW(Map(MapType::Hash, "h", 20, 4, 4));
}

TEST(Map, ZeroGeometryRejected)
{
    EXPECT_THROW(Map(MapType::Hash, "h", 0, 4, 4), std::invalid_argument);
    EXPECT_THROW(Map(MapType::Hash, "h", 4, 0, 4), std::invalid_argument);
    EXPECT_THROW(Map(MapType::Hash, "h", 4, 4, 0), std::invalid_argument);
}

// Property sweep: hash map behaves like a std::map reference model
// across a few hundred mixed operations, for several key widths.
class MapModelProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MapModelProperty, MatchesReferenceModel)
{
    const std::uint32_t key_size = GetParam();
    Map m(MapType::Hash, "h", key_size, 8, 256);
    std::map<std::vector<std::uint8_t>, std::uint64_t> model;
    std::uint64_t seed = 0x1234;
    auto next = [&] {
        seed = seed * 6364136223846793005ULL + 1;
        return seed >> 33;
    };
    for (int op = 0; op < 500; ++op) {
        std::vector<std::uint8_t> key(key_size);
        for (auto& b : key) b = static_cast<std::uint8_t>(next() % 7); // collisions likely
        const std::uint64_t val = next();
        switch (next() % 3) {
        case 0: { // update
            const bool ok =
                m.update(key, {reinterpret_cast<const std::uint8_t*>(&val), 8});
            if (ok) model[key] = val;
            break;
        }
        case 1: { // erase
            const bool ours = m.erase(key);
            const bool theirs = model.erase(key) > 0;
            ASSERT_EQ(ours, theirs);
            break;
        }
        default: { // lookup
            auto* p = m.lookup(key);
            auto it = model.find(key);
            ASSERT_EQ(p != nullptr, it != model.end());
            if (p) {
                std::uint64_t got;
                std::memcpy(&got, p, 8);
                ASSERT_EQ(got, it->second);
            }
        }
        }
        ASSERT_EQ(m.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(KeyWidths, MapModelProperty, ::testing::Values(1u, 4u, 8u, 20u),
                         [](const auto& info) {
                             return "key" + std::to_string(info.param);
                         });

// The flow map's shape at scale: 20-byte keys and max_entries 2^18.
// The map fills from empty to capacity (growing its slot array many
// times), refuses new keys there, then runs erase-heavy and refill
// phases that leave tombstones behind and force rehashes. Throughout,
// the map must agree with a sorted reference model, and the value
// pointer of the first key inserted must never move until it is erased.
TEST(MapModelAtScale, TwentyByteKeysThroughRegrowthAndTombstones)
{
    constexpr std::uint32_t kMax = 1u << 18;
    using Key = std::array<std::uint8_t, 20>;
    struct KeyHash {
        std::size_t operator()(const Key& k) const
        {
            std::uint64_t lo, hi;
            std::memcpy(&lo, k.data(), 8);
            std::memcpy(&hi, k.data() + 12, 8);
            return std::hash<std::uint64_t>{}(lo * 31 + hi);
        }
    };
    Map m(MapType::Hash, "flows", 20, 8, kMax);
    std::unordered_map<Key, std::uint64_t, KeyHash> model; // sorted when compared
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    auto next = [&] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 17;
    };
    auto random_key = [&](std::uint64_t space) {
        Key k{};
        const std::uint64_t id = next() % space;
        std::memcpy(k.data(), &id, sizeof id); // low bytes vary, the rest stay zero
        k[19] = static_cast<std::uint8_t>(id * 31);
        return k;
    };
    auto span_of = [](const auto& v) {
        return std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&v), sizeof v);
    };

    const Key pinned_key = random_key(1);
    ASSERT_TRUE(m.update(span_of(pinned_key), span_of(std::uint64_t{42})));
    model[pinned_key] = 42;
    const std::uint8_t* pinned = m.lookup(span_of(pinned_key));
    ASSERT_NE(pinned, nullptr);

    std::uint64_t ops = 0;
    auto put = [&](const Key& k) {
        const std::uint64_t v = next();
        const bool present = model.count(k) > 0;
        const bool ok = m.update(span_of(k), span_of(v));
        ASSERT_EQ(ok, present || model.size() < kMax);
        if (ok) model[k] = v;
        ++ops;
    };
    auto erase = [&](const Key& k) {
        ASSERT_EQ(m.erase(span_of(k)), model.erase(k) > 0);
        ++ops;
    };
    auto check_lookup = [&](const Key& k) {
        const std::uint8_t* p = m.lookup(span_of(k));
        auto it = model.find(k);
        ASSERT_EQ(p != nullptr, it != model.end());
        if (p) {
            std::uint64_t got;
            std::memcpy(&got, p, sizeof got);
            ASSERT_EQ(got, it->second);
        }
        ++ops;
    };
    auto check_snapshot = [&] {
        const auto snap = m.snapshot();
        std::vector<std::pair<Key, std::uint64_t>> sorted(model.begin(), model.end());
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(snap.size(), sorted.size());
        for (std::size_t i = 0; i < snap.size(); ++i) {
            const auto& [k, v] = snap[i];
            ASSERT_TRUE(std::equal(k.begin(), k.end(), sorted[i].first.begin(),
                                   sorted[i].first.end()));
            std::uint64_t got;
            std::memcpy(&got, v.data(), sizeof got);
            ASSERT_EQ(got, sorted[i].second);
        }
    };
    auto pinned_stable = [&] {
        ASSERT_EQ(m.lookup(span_of(pinned_key)), pinned);
        std::uint64_t got;
        std::memcpy(&got, pinned, sizeof got);
        ASSERT_EQ(got, 42u);
    };

    // Fill to capacity from a key space twice as large (some puts are
    // replacements), erasing one key in eight on the way.
    while (model.size() < kMax) {
        const Key k = random_key(2 * kMax);
        if (k == pinned_key) continue;
        if (next() % 8 == 0) {
            erase(k);
        } else {
            put(k);
        }
        ASSERT_EQ(m.size(), model.size());
        if ((ops & 1023) == 0) pinned_stable();
        if (HasFatalFailure()) return;
    }
    pinned_stable();
    check_snapshot();

    // At capacity: a new key is refused, an existing one still updates.
    Key fresh = random_key(2 * kMax);
    while (model.count(fresh)) fresh = random_key(2 * kMax);
    EXPECT_FALSE(m.update(span_of(fresh), span_of(std::uint64_t{1})));
    EXPECT_TRUE(m.update(span_of(pinned_key), span_of(std::uint64_t{42})));
    EXPECT_EQ(m.lookup(span_of(pinned_key)), pinned);

    // Erase-heavy phases alternate with refills: 200k mixed operations.
    const std::uint64_t mixed_start = ops;
    for (int phase = 0; ops - mixed_start < 200000; ++phase) {
        const bool drain = phase % 2 == 0;
        for (int i = 0; i < 25000; ++i) {
            const Key k = random_key(2 * kMax);
            if (k == pinned_key) continue;
            const std::uint64_t r = next() % 10;
            if (r < (drain ? 6u : 1u)) {
                erase(k);
            } else if (r < 8) {
                put(k);
            } else {
                check_lookup(k);
            }
            ASSERT_EQ(m.size(), model.size());
        }
        pinned_stable();
        if (HasFatalFailure()) return;
    }
    check_snapshot();

    ASSERT_TRUE(m.erase(span_of(pinned_key)));
    model.erase(pinned_key);
    EXPECT_EQ(m.lookup(span_of(pinned_key)), nullptr);
    EXPECT_EQ(m.size(), model.size());
}

// Steady churn at a small live size: every step erases one key and
// inserts a fresh one, so tombstones pile up far faster than the live
// count grows and the table must purge them by rehashing in place.
TEST(MapModelAtScale, ChurnPurgesTombstones)
{
    Map m(MapType::Hash, "churn", 20, 4, 1024);
    std::map<std::array<std::uint8_t, 20>, std::uint32_t> model;
    auto key_of = [](std::uint32_t id) {
        std::array<std::uint8_t, 20> k{};
        std::memcpy(k.data() + 8, &id, sizeof id);
        return k;
    };
    for (std::uint32_t id = 0; id < 100000; ++id) {
        const auto k = key_of(id);
        ASSERT_TRUE(m.update(k, {reinterpret_cast<const std::uint8_t*>(&id), sizeof id}));
        model[k] = id;
        if (id >= 500) {
            const auto old = key_of(id - 500);
            ASSERT_TRUE(m.erase(old));
            model.erase(old);
        }
        ASSERT_EQ(m.size(), model.size());
        if (id % 997 == 0) {
            for (std::uint32_t probe = id >= 600 ? id - 600 : 0; probe <= id; ++probe) {
                const auto v = m.lookup_kv<std::uint32_t>(key_of(probe));
                ASSERT_EQ(v.has_value(), model.count(key_of(probe)) > 0);
                if (v) {
                    ASSERT_EQ(*v, probe);
                }
            }
        }
    }
}

} // namespace
} // namespace ovsx::ebpf

// net::SlotTable against a plain model: a list of {hash, value} entries
// in add order. The table must find every entry under its hash, visit
// the entries of one hash in add order (ofproto's tie rule), and visit
// each entry once in for_each. The chosen hashes are equal ones and ones
// whose home slots sit at the array's end, so runs wrap past it; the
// cases are erase in the middle of a run and across the wrap, retain,
// and growth through several doublings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "net/slot_table.h"

namespace ovsx::net {
namespace {

struct Item {
    int id = 0;
};

using Table = SlotTable<const Item*>;

// Home of the last slot at any capacity.
constexpr std::uint64_t kLast = ~std::uint64_t{0};

// The values of hash `h` along its probe run, in run order.
std::vector<const Item*> run_of(const Table& t, std::uint64_t h)
{
    std::vector<const Item*> out;
    t.find(h, [&](const Item* v) {
        out.push_back(v);
        return false;
    });
    return out;
}

class Model {
public:
    const Item* add(std::uint64_t h)
    {
        items_.push_back(std::make_unique<Item>(Item{next_id_++}));
        entries_.push_back({h, items_.back().get()});
        return items_.back().get();
    }
    void remove(const Item* v)
    {
        entries_.erase(std::find_if(entries_.begin(), entries_.end(),
                                    [&](const Entry& e) { return e.value == v; }));
    }
    template <typename Keep> std::size_t retain(Keep keep)
    {
        const std::size_t before = entries_.size();
        std::erase_if(entries_, [&](const Entry& e) { return !keep(e.value); });
        return before - entries_.size();
    }

    // Checks `t` against the model.
    void expect_agrees(const Table& t) const
    {
        ASSERT_EQ(t.size(), entries_.size());
        ASSERT_LE(2 * t.size(), t.capacity());
        std::vector<std::uint64_t> hashes;
        for (const Entry& e : entries_) {
            const Item* const* found = t.find(e.hash, [&](const Item* v) { return v == e.value; });
            ASSERT_NE(found, nullptr) << "item " << e.value->id << " lost";
            EXPECT_EQ(*found, e.value);
            hashes.push_back(e.hash);
        }
        std::sort(hashes.begin(), hashes.end());
        hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
        for (const std::uint64_t h : hashes) {
            std::vector<const Item*> want;
            for (const Entry& e : entries_) {
                if (e.hash == h) want.push_back(e.value);
            }
            ASSERT_EQ(run_of(t, h), want) << "hash " << h << " out of add order";
        }
        std::vector<const Item*> seen;
        t.for_each([&](std::uint64_t h, const Item* v) {
            const auto it = std::find_if(entries_.begin(), entries_.end(),
                                         [&](const Entry& e) { return e.value == v; });
            ASSERT_NE(it, entries_.end());
            EXPECT_EQ(it->hash, h);
            seen.push_back(v);
        });
        EXPECT_EQ(seen.size(), entries_.size());
        std::sort(seen.begin(), seen.end());
        EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
    }

    std::size_t size() const { return entries_.size(); }
    std::uint64_t hash_at(std::size_t i) const { return entries_[i].hash; }
    const Item* value_at(std::size_t i) const { return entries_[i].value; }

private:
    struct Entry {
        std::uint64_t hash;
        const Item* value;
    };
    std::vector<std::unique_ptr<Item>> items_;
    std::vector<Entry> entries_;
    int next_id_ = 0;
};

TEST(SlotTable, EmptyTableMissesAndEraseReturnsNull)
{
    Table t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), Table::kMinSlots);
    EXPECT_EQ(t.find(kLast, [](const Item*) { return true; }), nullptr);
    EXPECT_EQ(t.erase(0, [](const Item*) { return true; }), nullptr);
    EXPECT_EQ(t.retain([](const Item*) { return false; }), 0u);
}

TEST(SlotTable, EqualHashesKeepAddOrderThroughThreeDoublings)
{
    // Two equal-hash groups: one homed at the last slot, whose run
    // wraps, and one homed at slot 0, where the wrapped run lands.
    Table t;
    Model m;
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t h = i % 2 == 0 ? kLast : 0;
        t.insert(h, m.add(h));
        m.expect_agrees(t);
    }
    EXPECT_EQ(t.capacity(), 128u); // 8 -> 16 -> 32 -> 64 -> 128
    // find() returns the first match in run order: the earliest add.
    const Item* const* first = t.find(kLast, [](const Item*) { return true; });
    ASSERT_NE(first, nullptr);
    EXPECT_EQ((*first)->id, 0);
}

TEST(SlotTable, HashesThatShareAHomeStayApart)
{
    // Same home slot (they differ only in bits past the array),
    // different hash: find never returns the other one.
    Table t;
    Model m;
    const std::uint64_t a = kLast;
    const std::uint64_t b = kLast ^ (std::uint64_t{1} << 40);
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t h = i % 3 == 0 ? b : a;
        t.insert(h, m.add(h));
    }
    m.expect_agrees(t);
    EXPECT_EQ(run_of(t, a).size(), 4u);
    EXPECT_EQ(run_of(t, b).size(), 2u);
}

// Six entries in a 16-slot table at shift 0, where a hash below 16 is
// its own home: one cluster from slot 14 that wraps, a@14 and b@15
// (home 14), c@0 and d@1 (home 15), e@2 (home 0) and f@3 (home 1).
// Erasing each one in turn covers the run's head, its middle, the last
// slot before the wrap and the wrapped tail.
TEST(SlotTable, EraseInTheMiddleOfARunAndAcrossTheWrap)
{
    const std::uint64_t homes[] = {14, 14, 15, 15, 0, 1};
    for (std::size_t victim = 0; victim < std::size(homes); ++victim) {
        Table t;
        Model m;
        for (const std::uint64_t h : homes) t.insert(h, m.add(h));
        ASSERT_EQ(t.capacity(), 16u);
        m.expect_agrees(t);
        const Item* v = m.value_at(victim);
        EXPECT_EQ(t.erase(m.hash_at(victim), [&](const Item* x) { return x == v; }), v);
        m.remove(v);
        m.expect_agrees(t);
        // Erase the rest one by one, from the front of the run.
        while (m.size() > 0) {
            const Item* w = m.value_at(0);
            EXPECT_EQ(t.erase(m.hash_at(0), [&](const Item* x) { return x == w; }), w);
            m.remove(w);
            m.expect_agrees(t);
        }
    }
}

TEST(SlotTable, EraseOfAnEqualHashKeepsTheOthersInOrder)
{
    Table t;
    Model m;
    for (int i = 0; i < 7; ++i) t.insert(kLast, m.add(kLast));
    // The middle one of seven, then the first.
    const Item* mid = m.value_at(3);
    EXPECT_EQ(t.erase(kLast, [&](const Item* x) { return x == mid; }), mid);
    m.remove(mid);
    m.expect_agrees(t);
    const Item* head = m.value_at(0);
    EXPECT_EQ(t.erase(kLast, [&](const Item* x) { return x == head; }), head);
    m.remove(head);
    m.expect_agrees(t);
}

TEST(SlotTable, RetainRebuildsOnceKeepingSurvivorsInOrder)
{
    Table t;
    Model m;
    for (int i = 0; i < 30; ++i) {
        const std::uint64_t h = i % 3 == 0 ? 0 : kLast;
        t.insert(h, m.add(h));
    }
    const std::size_t capacity = t.capacity();
    int visits = 0;
    EXPECT_EQ(t.retain([&](const Item*) {
        ++visits;
        return true;
    }),
              0u);
    EXPECT_EQ(visits, 30);
    m.expect_agrees(t);

    const auto keep = [](const Item* v) { return v->id % 4 != 1; };
    const std::size_t dropped = m.retain(keep);
    EXPECT_EQ(t.retain(keep), dropped);
    EXPECT_EQ(t.capacity(), capacity);
    m.expect_agrees(t);

    // The rebuilt table still grows and erases like a fresh one.
    for (int i = 0; i < 30; ++i) t.insert(kLast, m.add(kLast));
    m.expect_agrees(t);
    EXPECT_EQ(t.retain([](const Item*) { return false; }), m.size());
    m.retain([](const Item*) { return false; });
    m.expect_agrees(t);
}

TEST(SlotTable, SeededOperationsAgreeWithAPlainModel)
{
    std::mt19937_64 rng(0x5107);
    // Equal hashes (a small alphabet), homes at the array's end and at
    // its start, and one pair that shares a home.
    std::vector<std::uint64_t> alphabet = {kLast, kLast ^ (std::uint64_t{1} << 40), 0, 1,
                                           kLast ^ 1};
    for (int i = 0; i < 11; ++i) alphabet.push_back(rng());
    Table t;
    Model m;
    // Insert-heavy first (the table doubles to at least 256 slots), then
    // erase-heavy (it drains through every load).
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t insert_pct = op < 1500 ? 70 : 30;
        const std::uint64_t roll = rng() % 100;
        if (roll < insert_pct || m.size() == 0) {
            const std::uint64_t h = alphabet[rng() % alphabet.size()];
            t.insert(h, m.add(h));
        } else if (roll < 99) {
            const std::size_t i = rng() % m.size();
            const std::uint64_t h = m.hash_at(i);
            const Item* v = m.value_at(i);
            const auto is_v = [&](const Item* x) { return x == v; };
            EXPECT_EQ(t.erase(h, is_v), v);
            m.remove(v);
            EXPECT_EQ(t.erase(h, is_v), nullptr); // already gone
        } else {
            const int k = static_cast<int>(rng() % 3);
            const auto keep = [k](const Item* v) { return v->id % 3 != k; };
            const std::size_t dropped = m.retain(keep);
            EXPECT_EQ(t.retain(keep), dropped);
        }
        m.expect_agrees(t);
        if (HasFatalFailure()) return;
    }
    EXPECT_GE(t.capacity(), 256u);
}

} // namespace
} // namespace ovsx::net

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "net/builder.h"
#include "net/headers.h"
#include "ovs/ofproto.h"
#include "sim/rng.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::FlowKey udp_key(std::uint32_t in_port, std::uint16_t dport = 2000,
                     std::uint32_t dst = ipv4(10, 0, 0, 2))
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = 1000;
    spec.dst_port = dport;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = in_port;
    return net::parse_flow(p);
}

Match match_in_port(std::uint32_t port)
{
    Match m;
    m.key.in_port = port;
    m.mask.bits.in_port = 0xffffffff;
    return m;
}

TEST(Ofproto, SingleTableOutput)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 1u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::Output);
    EXPECT_EQ(res.actions[0].port, 2u);
    EXPECT_FALSE(res.dropped);
    EXPECT_EQ(res.tables_visited, 1);
}

TEST(Ofproto, PriorityWins)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    Match specific = match_in_port(1);
    specific.key.tp_dst = 2000;
    specific.mask.bits.tp_dst = 0xffff;
    of.add_rule({.table = 0, .priority = 100, .match = specific,
                 .actions = {OfAction::output(9)}});

    EXPECT_EQ(of.xlate(udp_key(1, 2000)).actions[0].port, 9u);
    EXPECT_EQ(of.xlate(udp_key(1, 53)).actions[0].port, 2u);
}

TEST(Ofproto, NoMatchDrops)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    const auto res = of.xlate(udp_key(5));
    EXPECT_TRUE(res.dropped);
    EXPECT_TRUE(res.actions.empty());
}

TEST(Ofproto, GotoTableChains)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::push_vlan(7), OfAction::goto_table(5)}});
    Match any; // match-all
    of.add_rule({.table = 5, .priority = 0, .match = any,
                 .actions = {OfAction::output(3)}});

    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::PushVlan);
    EXPECT_EQ(res.actions[1].port, 3u);
    EXPECT_EQ(res.tables_visited, 2);
}

TEST(Ofproto, WildcardsCoverProbedMasks)
{
    Ofproto of;
    // Table 0 has two masks: in_port-only and in_port+dport.
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    Match specific = match_in_port(1);
    specific.key.tp_dst = 443;
    specific.mask.bits.tp_dst = 0xffff;
    of.add_rule({.table = 0, .priority = 100, .match = specific,
                 .actions = {OfAction::drop()}});

    // A packet to dport 2000 matches the broad rule, but the cache entry
    // must still be specific on tp_dst (else a 443 packet would hit it).
    const auto res = of.xlate(udp_key(1, 2000));
    EXPECT_EQ(res.actions[0].port, 2u);
    EXPECT_EQ(res.wildcards.bits.tp_dst, 0xffff);
    EXPECT_EQ(res.wildcards.bits.in_port, 0xffffffffu);
}

TEST(Ofproto, CtRecirculationSplitsTranslation)
{
    Ofproto of;
    kern::CtSpec ct{.zone = 7, .commit = false};
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::conntrack(ct, /*recirc_table=*/4)}});
    Match est;
    est.key.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    est.mask.bits.ct_state = 0xff;
    of.add_rule({.table = 4, .priority = 10, .match = est,
                 .actions = {OfAction::output(8)}});

    // First pass ends in ct+recirc.
    const auto pass1 = of.xlate(udp_key(1));
    ASSERT_EQ(pass1.actions.size(), 2u);
    EXPECT_EQ(pass1.actions[0].type, kern::OdpAction::Type::Ct);
    EXPECT_EQ(pass1.actions[1].type, kern::OdpAction::Type::Recirc);
    const std::uint32_t rid = pass1.actions[1].recirc_id;
    EXPECT_NE(rid, 0u);
    EXPECT_EQ(of.recirc_ids(), 1u);

    // Second pass resumes at table 4 with ct_state set.
    net::FlowKey key2 = udp_key(1);
    key2.recirc_id = rid;
    key2.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    const auto pass2 = of.xlate(key2);
    ASSERT_EQ(pass2.actions.size(), 1u);
    EXPECT_EQ(pass2.actions[0].port, 8u);

    // Unknown recirc id drops.
    net::FlowKey key3 = udp_key(1);
    key3.recirc_id = 0xdead;
    EXPECT_TRUE(of.xlate(key3).dropped);
}

TEST(Ofproto, RecircIdsAreReusedPerResumePoint)
{
    Ofproto of;
    kern::CtSpec ct{.zone = 7, .commit = false};
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::conntrack(ct, 4)}});
    const auto a = of.xlate(udp_key(1, 1111));
    const auto b = of.xlate(udp_key(1, 2222));
    EXPECT_EQ(a.actions[1].recirc_id, b.actions[1].recirc_id);
    EXPECT_EQ(of.recirc_ids(), 1u);
}

TEST(Ofproto, SetFieldAffectsLaterTables)
{
    Ofproto of;
    net::FlowKey rewrite;
    rewrite.nw_dst = ipv4(99, 0, 0, 1);
    net::FlowMask rmask;
    rmask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::set_field(rewrite, rmask), OfAction::goto_table(1)}});
    Match rewritten;
    rewritten.key.nw_dst = ipv4(99, 0, 0, 1);
    rewritten.mask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 1, .priority = 10, .match = rewritten,
                 .actions = {OfAction::output(5)}});

    const auto res = of.xlate(udp_key(1)); // original dst 10.0.0.2
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[1].port, 5u);
}

TEST(Ofproto, StatsAndInventory)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(1)}});
    Match m2 = match_in_port(2);
    m2.key.nw_dst = ipv4(1, 2, 3, 4);
    m2.mask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 3, .priority = 1, .match = m2, .actions = {OfAction::output(1)}});

    EXPECT_EQ(of.rule_count(), 2u);
    EXPECT_EQ(of.table_count(), 2u);
    EXPECT_EQ(of.distinct_match_fields(), 2); // in_port, nw_dst
    of.xlate(udp_key(1));
    EXPECT_EQ(of.xlate_count(), 1u);
    of.clear();
    EXPECT_EQ(of.rule_count(), 0u);
}

TEST(Ofproto, ControllerAndMeterTranslate)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::meter(3), OfAction::controller()}});
    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::Meter);
    EXPECT_EQ(res.actions[1].type, kern::OdpAction::Type::Userspace);
}

// ---- reference classifier --------------------------------------------------

// Brute-force xlate for the actions the random rulesets use. Each visited
// table's rules are scanned in add order: the highest priority wins, a
// tie goes to the earliest subtable (masks numbered by first appearance
// in the table), then to the earliest-added rule. The wildcards are the
// OR of every mask of every visited table.
class ReferencePipeline {
public:
    void add_rule(const OfRule& rule) { rules_.push_back(rule); }

    XlateResult xlate(const net::FlowKey& key) const
    {
        XlateResult res;
        res.wildcards.bits.in_port = 0xffffffff;
        res.wildcards.bits.recirc_id = 0xffffffff;
        net::FlowKey working = key;
        std::uint8_t table = 0;
        for (int hops = 0; hops < 64; ++hops) {
            bool has_rules = false;
            for (const OfRule& r : rules_) has_rules |= r.table == table;
            if (!has_rules) {
                res.dropped = true;
                break;
            }
            ++res.tables_visited;
            const OfRule* rule = classify(table, working, &res.wildcards);
            if (!rule) {
                res.dropped = true;
                break;
            }
            ++res.rules_matched;
            bool advanced = false;
            for (const OfAction& a : rule->actions) {
                switch (a.type) {
                case OfAction::Type::Output:
                    res.actions.push_back(kern::OdpAction::output(a.port));
                    break;
                case OfAction::Type::SetField:
                    res.actions.push_back(kern::OdpAction::set_field(a.set_value, a.set_mask));
                    working = or_keys(a.set_mask.apply(a.set_value),
                                      clear_bits(working, a.set_mask));
                    break;
                case OfAction::Type::PushVlan:
                    res.actions.push_back(kern::OdpAction::push_vlan(a.vlan_tci));
                    working.vlan_tci = static_cast<std::uint16_t>(a.vlan_tci | 0x1000);
                    break;
                case OfAction::Type::Meter:
                    res.actions.push_back(kern::OdpAction::meter(a.meter_id));
                    break;
                case OfAction::Type::GotoTable:
                    table = a.table;
                    advanced = true;
                    break;
                case OfAction::Type::Drop:
                    res.dropped = true;
                    return res;
                default:
                    ADD_FAILURE() << "action outside the reference model";
                    return res;
                }
                if (advanced) break;
            }
            if (!advanced) break;
        }
        if (res.actions.empty() && !res.dropped) res.dropped = true;
        return res;
    }

private:
    static net::FlowKey or_keys(const net::FlowKey& a, const net::FlowKey& b)
    {
        net::FlowKey out;
        auto* o = reinterpret_cast<std::uint8_t*>(&out);
        const auto* x = reinterpret_cast<const std::uint8_t*>(&a);
        const auto* y = reinterpret_cast<const std::uint8_t*>(&b);
        for (std::size_t i = 0; i < sizeof out; ++i) o[i] = static_cast<std::uint8_t>(x[i] | y[i]);
        return out;
    }

    static net::FlowKey clear_bits(const net::FlowKey& key, const net::FlowMask& mask)
    {
        net::FlowKey out = key;
        auto* o = reinterpret_cast<std::uint8_t*>(&out);
        const auto* m = reinterpret_cast<const std::uint8_t*>(&mask.bits);
        for (std::size_t i = 0; i < sizeof out; ++i) o[i] = static_cast<std::uint8_t>(o[i] & ~m[i]);
        return out;
    }

    const OfRule* classify(std::uint8_t table, const net::FlowKey& key,
                           net::FlowMask* wildcards) const
    {
        std::vector<net::FlowMask> masks; // this table's, by first appearance
        const OfRule* best = nullptr;
        std::size_t best_sub = 0;
        for (const OfRule& r : rules_) {
            if (r.table != table) continue;
            const auto it = std::find(masks.begin(), masks.end(), r.match.mask);
            const auto sub = static_cast<std::size_t>(it - masks.begin());
            if (it == masks.end()) {
                masks.push_back(r.match.mask);
                wildcards->bits = or_keys(wildcards->bits, r.match.mask.bits);
            }
            if (!(r.match.mask.apply(key) == r.match.masked())) continue;
            if (!best || r.priority > best->priority ||
                (r.priority == best->priority && sub < best_sub)) {
                best = &r;
                best_sub = sub;
            }
        }
        return best;
    }

    std::vector<OfRule> rules_;
};

// Random rulesets over small field domains, so that keys often match
// several rules of several masks at once.
class RulesetGen {
public:
    explicit RulesetGen(std::uint64_t seed) : rng_(seed) {}

    // A key drawn from the domains, with noise in every other field.
    net::FlowKey key()
    {
        net::FlowKey k;
        auto* b = reinterpret_cast<std::uint8_t*>(&k);
        for (std::size_t i = 0; i < sizeof k; ++i) b[i] = static_cast<std::uint8_t>(rng_.next());
        k.recirc_id = 0;
        k.in_port = 1 + static_cast<std::uint32_t>(rng_.below(4));
        k.dl_type = 0x0800;
        k.vlan_tci = kVlans[rng_.below(3)];
        k.nw_dst = ipv4(10, 0, static_cast<std::uint8_t>(rng_.below(2)),
                        static_cast<std::uint8_t>(1 + rng_.below(4)));
        k.nw_proto = rng_.below(2) ? 6 : 17;
        k.tp_dst = kPorts[rng_.below(4)];
        return k;
    }

    // `from`'s bits under `mask`, a fresh key() everywhere else.
    net::FlowKey key_matching(const net::FlowKey& from, const net::FlowMask& mask)
    {
        net::FlowKey k = key();
        auto* o = reinterpret_cast<std::uint8_t*>(&k);
        const auto* f = reinterpret_cast<const std::uint8_t*>(&from);
        const auto* m = reinterpret_cast<const std::uint8_t*>(&mask.bits);
        for (std::size_t i = 0; i < sizeof k; ++i) {
            o[i] = static_cast<std::uint8_t>((o[i] & ~m[i]) | (f[i] & m[i]));
        }
        k.recirc_id = 0;
        return k;
    }

    // Masks shared by every table; the last matches everything.
    static std::vector<net::FlowMask> mask_pool()
    {
        std::vector<net::FlowMask> pool(7);
        pool[0].bits.in_port = 0xffffffff;
        pool[1].bits.in_port = 0xffffffff;
        pool[1].bits.tp_dst = 0xffff;
        pool[2].bits.nw_dst = 0xffffff00;
        pool[3].bits.nw_dst = 0xffffffff;
        pool[3].bits.nw_proto = 0xff;
        pool[4].bits.vlan_tci = 0x0fff;
        pool[4].bits.dl_type = 0xffff;
        pool[5].bits.tp_dst = 0xff00;
        pool[5].bits.nw_proto = 0xff;
        return pool;
    }

    // Actions of rule number `id`: a meter naming the rule, then an
    // output, a drop, or a goto (after an optional rewrite) to a later
    // table, which may have no rules.
    OfActions actions(std::uint32_t id, std::uint8_t table)
    {
        OfActions acts = {OfAction::meter(id)};
        const std::uint64_t kind = rng_.below(10);
        if (kind < 4 || table >= kLastTable) {
            acts.push_back(OfAction::output(id % 16));
        } else if (kind < 5) {
            acts.push_back(OfAction::drop());
        } else {
            if (kind == 6) {
                net::FlowKey v;
                v.tp_dst = kPorts[rng_.below(4)];
                net::FlowMask m;
                m.bits.tp_dst = 0xffff;
                acts.push_back(OfAction::set_field(v, m));
            } else if (kind == 7) {
                acts.push_back(OfAction::push_vlan(kVlans[1 + rng_.below(2)] & 0x0fff));
            }
            acts.push_back(OfAction::goto_table(
                static_cast<std::uint8_t>(table + 1 + rng_.below(kLastTable + 1 - table))));
        }
        return acts;
    }

    sim::Rng& rng() { return rng_; }

    static constexpr std::uint8_t kLastTable = 5; // table 5 is left empty
    static constexpr std::uint16_t kVlans[3] = {0, 0x1005, 0x1007};
    static constexpr std::uint16_t kPorts[4] = {53, 80, 443, 8080};

private:
    sim::Rng rng_;
};

void expect_same_xlate(const XlateResult& got, const XlateResult& want,
                       const net::FlowKey& key)
{
    EXPECT_EQ(kern::actions_to_string(got.actions), kern::actions_to_string(want.actions))
        << key.to_string();
    EXPECT_TRUE(got.actions == want.actions) << key.to_string();
    EXPECT_EQ(got.wildcards, want.wildcards) << key.to_string();
    EXPECT_EQ(got.tables_visited, want.tables_visited) << key.to_string();
    EXPECT_EQ(got.rules_matched, want.rules_matched) << key.to_string();
    EXPECT_EQ(got.dropped, want.dropped) << key.to_string();
}

TEST(OfprotoReference, XlateMatchesBruteForceClassifier)
{
    const std::vector<net::FlowMask> pool = RulesetGen::mask_pool();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RulesetGen gen(seed * 0x5eed);
        Ofproto of;
        ReferencePipeline ref;
        std::vector<OfRule> added;
        std::uint32_t id = 0;
        auto add = [&](OfRule rule) {
            of.add_rule(rule);
            ref.add_rule(rule);
            added.push_back(std::move(rule));
        };
        auto random_rule = [&](std::uint8_t table, const net::FlowMask& mask) {
            return OfRule{.table = table,
                          .priority = static_cast<std::int32_t>(10 * gen.rng().below(4)),
                          .match = {gen.key(), mask},
                          .actions = gen.actions(++id, table)};
        };

        // One masked key at equal priorities (the earlier-added wins) and
        // at a lower one, added first in table 0 and last in table 1.
        const net::FlowKey dup = gen.key();
        const auto dup_rule = [&](std::uint8_t table, std::int32_t prio) {
            return OfRule{.table = table,
                          .priority = prio,
                          .match = {gen.key_matching(dup, pool[1]), pool[1]},
                          .actions = {OfAction::meter(++id), OfAction::output(1)}};
        };
        add(dup_rule(0, 20));
        add(dup_rule(0, 20));
        add(dup_rule(0, 10));

        // Eight masked keys, each alone in its own subtable of table 0
        // with five rules at one priority above every other rule's. A
        // flat slot array doubles at the fifth, and when the key's run
        // of four wrapped past the array's end, re-inserting it from the
        // start of the array instead of from an empty slot would put the
        // third rule first.
        for (std::uint32_t g = 0; g < 8; ++g) {
            net::FlowMask mask;
            mask.bits.nw_src = 0xffffffff;
            mask.bits.ct_mark = 1u << g;
            const net::FlowKey k = gen.key();
            for (int r = 0; r < 5; ++r) {
                add({.table = 0, .priority = 40, .match = {gen.key_matching(k, mask), mask},
                     .actions = {OfAction::meter(++id), OfAction::output(2)}});
            }
        }

        // Tables 0-4 share masks: each draws 2-4 of the pool, in a
        // random first-appearance order.
        for (std::uint8_t table = 0; table < RulesetGen::kLastTable; ++table) {
            const std::size_t n_masks = 2 + gen.rng().below(3);
            std::vector<net::FlowMask> masks;
            for (std::size_t m = 0; m < n_masks; ++m) {
                masks.push_back(pool[gen.rng().below(pool.size())]);
            }
            for (int r = 0; r < 40; ++r) add(random_rule(table, masks[gen.rng().below(n_masks)]));
        }

        // Table 2's exact nw_dst+proto subtable takes over 100 rules, so
        // a flat slot array under it doubles several times: a tie whose
        // rules were added before the growth, and one added after it,
        // must still go to the earliest rule.
        OfRule first = random_rule(2, pool[3]);
        first.priority = 35;
        add(first);
        OfRule twin = first;
        twin.actions = gen.actions(++id, 2);
        add(twin);
        for (std::uint8_t i = 0; i < 100; ++i) {
            OfRule r = random_rule(2, pool[3]);
            r.match.key.nw_dst = ipv4(10, 1, 0, i);
            add(r);
        }
        twin.actions = gen.actions(++id, 2);
        add(twin);
        add(dup_rule(1, 10));
        add(dup_rule(1, 20));
        add(dup_rule(1, 20));

        for (int q = 0; q < 3000; ++q) {
            net::FlowKey key;
            if (q % 2 == 0) {
                key = gen.key();
            } else {
                const OfRule& r = added[gen.rng().below(added.size())];
                key = gen.key_matching(r.match.key, r.match.mask);
            }
            expect_same_xlate(of.xlate(key), ref.xlate(key), key);
            if (::testing::Test::HasFailure()) return;
        }
    }
}

} // namespace
} // namespace ovsx::ovs

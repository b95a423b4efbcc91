#include "ovs/ofproto.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace ovsx::ovs {

namespace {

// into |= m, a 64-bit lane at a time.
void or_into(net::FlowMask* into, const net::FlowMask& m)
{
    auto* out = reinterpret_cast<std::uint8_t*>(&into->bits);
    for (std::size_t i = 0; i < net::detail::kKeyLanes; ++i) {
        const std::uint64_t w =
            net::detail::key_lane(into->bits, i) | net::detail::key_lane(m.bits, i);
        std::memcpy(out + i * sizeof w, &w, sizeof w);
    }
}

} // namespace

OfAction OfAction::output(std::uint32_t port)
{
    OfAction a;
    a.type = Type::Output;
    a.port = port;
    return a;
}
OfAction OfAction::set_field(const net::FlowKey& v, const net::FlowMask& m)
{
    OfAction a;
    a.type = Type::SetField;
    a.set_value = v;
    a.set_mask = m;
    return a;
}
OfAction OfAction::push_vlan(std::uint16_t tci)
{
    OfAction a;
    a.type = Type::PushVlan;
    a.vlan_tci = tci;
    return a;
}
OfAction OfAction::pop_vlan()
{
    OfAction a;
    a.type = Type::PopVlan;
    return a;
}
OfAction OfAction::set_tunnel(const net::TunnelKey& key)
{
    OfAction a;
    a.type = Type::SetTunnel;
    a.tunnel = key;
    return a;
}
OfAction OfAction::conntrack(const kern::CtSpec& spec, int recirc_table)
{
    OfAction a;
    a.type = Type::Ct;
    a.ct = spec;
    a.ct_table = recirc_table;
    return a;
}
OfAction OfAction::goto_table(std::uint8_t table)
{
    OfAction a;
    a.type = Type::GotoTable;
    a.table = table;
    return a;
}
OfAction OfAction::meter(std::uint32_t id)
{
    OfAction a;
    a.type = Type::Meter;
    a.meter_id = id;
    return a;
}
OfAction OfAction::controller()
{
    OfAction a;
    a.type = Type::Controller;
    return a;
}
OfAction OfAction::drop()
{
    OfAction a;
    a.type = Type::Drop;
    return a;
}

Ofproto::Ofproto() = default;

void Ofproto::add_rule(OfRule rule)
{
    rules_.push_back(std::make_unique<OfRule>(std::move(rule)));
    const OfRule* ptr = rules_.back().get();
    Table& table = tables_[ptr->table];
    auto sub = std::find_if(table.subtables.begin(), table.subtables.end(),
                            [&](const Subtable& s) { return s.mask == ptr->match.mask; });
    if (sub == table.subtables.end()) {
        sub = table.subtables.emplace(table.subtables.end(), ptr->match.mask);
        or_into(&table.mask, ptr->match.mask);
    }
    sub->rules.insert(sub->plan.hash(ptr->match.key), ptr);
    ++table.n_rules;
    ++rule_count_;
}

std::size_t Ofproto::table_count() const
{
    return static_cast<std::size_t>(std::count_if(
        tables_.begin(), tables_.end(), [](const Table& t) { return t.n_rules > 0; }));
}

int Ofproto::distinct_match_fields() const
{
    // Count FlowKey byte positions used by at least one rule's mask —
    // grouped into logical fields by known offsets is overkill; we count
    // distinct *fields* using a fixed field table.
    struct Field {
        std::size_t off;
        std::size_t len;
    };
    static const Field kFields[] = {
        {offsetof(net::FlowKey, tun_id), 8},   {offsetof(net::FlowKey, tun_src), 4},
        {offsetof(net::FlowKey, tun_dst), 4},  {offsetof(net::FlowKey, in_port), 4},
        {offsetof(net::FlowKey, recirc_id), 4},{offsetof(net::FlowKey, ct_mark), 4},
        {offsetof(net::FlowKey, ct_zone), 2},  {offsetof(net::FlowKey, ct_state), 1},
        {offsetof(net::FlowKey, dl_src), 6},   {offsetof(net::FlowKey, dl_dst), 6},
        {offsetof(net::FlowKey, dl_type), 2},  {offsetof(net::FlowKey, vlan_tci), 2},
        {offsetof(net::FlowKey, nw_src), 4},   {offsetof(net::FlowKey, nw_dst), 4},
        {offsetof(net::FlowKey, nw_proto), 1}, {offsetof(net::FlowKey, nw_tos), 1},
        {offsetof(net::FlowKey, nw_ttl), 1},   {offsetof(net::FlowKey, nw_frag), 1},
        {offsetof(net::FlowKey, ipv6_src), 16},{offsetof(net::FlowKey, ipv6_dst), 16},
        {offsetof(net::FlowKey, tp_src), 2},   {offsetof(net::FlowKey, tp_dst), 2},
        {offsetof(net::FlowKey, tcp_flags), 1},{offsetof(net::FlowKey, icmp_type), 1},
        {offsetof(net::FlowKey, icmp_code), 1},
    };
    std::set<std::size_t> used;
    for (const auto& rule : rules_) {
        const auto* m = reinterpret_cast<const std::uint8_t*>(&rule->match.mask.bits);
        for (const auto& f : kFields) {
            if (used.contains(f.off)) continue;
            for (std::size_t i = 0; i < f.len; ++i) {
                if (m[f.off + i]) {
                    used.insert(f.off);
                    break;
                }
            }
        }
    }
    return static_cast<int>(used.size());
}

void Ofproto::clear()
{
    rules_.clear();
    for (Table& table : tables_) table = Table{};
    rule_count_ = 0;
    recirc_alloc_.clear();
    recirc_resume_.clear();
}

const OfRule* Ofproto::classify(const Table& table, const net::FlowKey& key,
                                net::FlowMask* wildcards) const
{
    // Every subtable is probed, so the decision depends on every mask of
    // the table: the cached megaflow must be at least as specific.
    or_into(wildcards, table.mask);
    const OfRule* best = nullptr;
    for (const Subtable& sub : table.subtables) {
        sub.rules.find(sub.plan.hash(key), [&](const OfRule* rule) {
            // All rules of a subtable share its mask, so comparing the
            // unmasked rule key under it is masked() == masked. Rules of
            // one hash come in add order, so a tie keeps the earliest.
            if (sub.plan.same_masked(key, rule->match.key) &&
                (!best || rule->priority > best->priority)) {
                best = rule;
            }
            return false; // visit the whole run
        });
    }
    return best;
}

std::uint32_t Ofproto::recirc_id_for(std::uint8_t resume_table, std::uint16_t zone) const
{
    const auto key = std::make_pair(resume_table, zone);
    auto it = recirc_alloc_.find(key);
    if (it != recirc_alloc_.end()) return it->second;
    const std::uint32_t id = next_recirc_id_++;
    recirc_alloc_[key] = id;
    recirc_resume_[id] = resume_table;
    return id;
}

XlateResult Ofproto::xlate(const net::FlowKey& key) const
{
    ++xlate_count_;
    XlateResult res;
    // Decisions always depend on metadata.
    res.wildcards.bits.in_port = 0xffffffff;
    res.wildcards.bits.recirc_id = 0xffffffff;

    // Resume point for recirculated flows.
    std::uint8_t table_id = 0;
    if (key.recirc_id != 0) {
        auto it = recirc_resume_.find(key.recirc_id);
        if (it == recirc_resume_.end()) {
            res.dropped = true;
            return res;
        }
        table_id = it->second;
    }

    net::FlowKey working = key;
    int hops = 0;
    while (hops++ < 64) {
        const Table& table = tables_[table_id];
        if (table.n_rules == 0) {
            res.dropped = true; // empty table: OpenFlow table-miss -> drop
            break;
        }
        ++res.tables_visited;
        const OfRule* rule = classify(table, working, &res.wildcards);
        if (!rule) {
            res.dropped = true;
            break;
        }
        ++rule->n_matched;
        ++res.rules_matched;

        bool advanced = false;
        for (const OfAction& act : rule->actions) {
            switch (act.type) {
            case OfAction::Type::Output:
                res.actions.push_back(kern::OdpAction::output(act.port));
                break;
            case OfAction::Type::SetField:
                res.actions.push_back(kern::OdpAction::set_field(act.set_value, act.set_mask));
                working = [&] {
                    // Keep classifying against the rewritten fields.
                    net::FlowKey w = working;
                    const auto* v = reinterpret_cast<const std::uint8_t*>(&act.set_value);
                    const auto* m = reinterpret_cast<const std::uint8_t*>(&act.set_mask.bits);
                    auto* out = reinterpret_cast<std::uint8_t*>(&w);
                    for (std::size_t i = 0; i < sizeof(net::FlowKey); ++i) {
                        out[i] = static_cast<std::uint8_t>((out[i] & ~m[i]) | (v[i] & m[i]));
                    }
                    return w;
                }();
                break;
            case OfAction::Type::PushVlan:
                res.actions.push_back(kern::OdpAction::push_vlan(act.vlan_tci));
                working.vlan_tci = static_cast<std::uint16_t>(act.vlan_tci | 0x1000);
                break;
            case OfAction::Type::PopVlan:
                res.actions.push_back(kern::OdpAction::pop_vlan());
                working.vlan_tci = 0;
                break;
            case OfAction::Type::SetTunnel:
                res.actions.push_back(kern::OdpAction::set_tunnel(act.tunnel));
                break;
            case OfAction::Type::Ct: {
                res.actions.push_back(kern::OdpAction::conntrack(act.ct));
                if (act.ct_table >= 0) {
                    const std::uint32_t rid =
                        recirc_id_for(static_cast<std::uint8_t>(act.ct_table), act.ct.zone);
                    res.actions.push_back(kern::OdpAction::recirc(rid));
                    return res; // translation resumes on the recirculated upcall
                }
                break;
            }
            case OfAction::Type::GotoTable:
                table_id = act.table;
                advanced = true;
                break;
            case OfAction::Type::Meter:
                res.actions.push_back(kern::OdpAction::meter(act.meter_id));
                break;
            case OfAction::Type::Controller:
                res.actions.push_back(kern::OdpAction::userspace());
                break;
            case OfAction::Type::Drop:
                res.dropped = true;
                return res;
            }
            if (advanced) break;
        }
        if (!advanced) break; // no goto: pipeline ends here
    }
    if (res.actions.empty() && !res.dropped) res.dropped = true;
    return res;
}

} // namespace ovsx::ovs

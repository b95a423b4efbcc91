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

void OfAction::encode(kern::ActionBuf& b) const
{
    using kern::ActionAttr;
    namespace attr = kern::attr;
    switch (type) {
    case Type::Output: attr::u32(b, ActionAttr::Output, port); break;
    case Type::SetField: attr::set_field(b, set_value, set_mask); break;
    case Type::PushVlan: attr::push_vlan(b, vlan_tci); break;
    case Type::PopVlan: attr::empty(b, ActionAttr::PopVlan); break;
    case Type::SetTunnel: attr::set_tunnel(b, tunnel); break;
    case Type::Ct:
        attr::ct(b, ct);
        if (ct_table >= 0) {
            attr::table(b, ActionAttr::CtResume, static_cast<std::uint8_t>(ct_table));
        }
        break;
    case Type::GotoTable: attr::table(b, ActionAttr::GotoTable, table); break;
    case Type::Meter: attr::u32(b, ActionAttr::Meter, meter_id); break;
    case Type::Controller: attr::empty(b, ActionAttr::Controller); break;
    case Type::Drop: attr::empty(b, ActionAttr::Drop); break;
    }
}

OfAction OfAction::decode(const kern::ActionCursor& c)
{
    using kern::ActionAttr;
    switch (c.attr()) {
    case ActionAttr::Output: return output(c.port());
    case ActionAttr::SetField: {
        OfAction a;
        a.type = Type::SetField;
        c.set_field(&a.set_value, &a.set_mask);
        return a;
    }
    case ActionAttr::PushVlan: return push_vlan(c.vlan_tci());
    case ActionAttr::PopVlan: return pop_vlan();
    case ActionAttr::SetTunnel: return set_tunnel(c.tunnel());
    case ActionAttr::Ct: {
        kern::ActionCursor resume = c;
        resume.next();
        const bool resumes = !resume.done() && resume.attr() == ActionAttr::CtResume;
        return conntrack(c.ct(), resumes ? resume.table() : -1);
    }
    case ActionAttr::GotoTable: return goto_table(c.table());
    case ActionAttr::Meter: return meter(c.meter_id());
    case ActionAttr::Controller: return controller();
    case ActionAttr::Drop: return drop();
    case ActionAttr::CtResume: // never the first attribute of an OpenFlow action
    case ActionAttr::Recirc:
    case ActionAttr::Userspace: break;
    }
    return drop();
}

void OfAction::skip(kern::ActionCursor& c)
{
    const bool ct = c.attr() == kern::ActionAttr::Ct;
    c.next();
    if (ct && !c.done() && c.attr() == kern::ActionAttr::CtResume) c.next();
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
    // Count the FlowKey fields at least one rule's mask covers.
    std::set<std::size_t> used;
    for (const auto& rule : rules_) {
        const auto* m = reinterpret_cast<const std::uint8_t*>(&rule->match.mask.bits);
        for (const net::FlowField& f : net::kFlowFields) {
            if (f.kind == net::FlowField::Kind::Pad || used.contains(f.offset)) continue;
            if (std::any_of(m + f.offset, m + f.offset + f.len,
                            [](std::uint8_t b) { return b != 0; })) {
                used.insert(f.offset);
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

        // Datapath-kind attributes go to the result as they are.
        bool advanced = false;
        kern::ActionCursor ct; // the last Ct, which a CtResume follows
        for (kern::ActionCursor c = rule->actions.cursor(); !c.done() && !advanced; c.next()) {
            using kern::ActionAttr;
            switch (c.attr()) {
            case ActionAttr::SetField:
                c.rewrite(&working); // keep classifying against the rewritten fields
                res.actions.append(c.attr_bytes());
                break;
            case ActionAttr::PushVlan:
                working.vlan_tci = static_cast<std::uint16_t>(c.vlan_tci() | 0x1000);
                res.actions.append(c.attr_bytes());
                break;
            case ActionAttr::PopVlan:
                working.vlan_tci = 0;
                res.actions.append(c.attr_bytes());
                break;
            case ActionAttr::Ct:
                ct = c;
                res.actions.append(c.attr_bytes());
                break;
            case ActionAttr::Output:
            case ActionAttr::SetTunnel:
            case ActionAttr::Meter:
                res.actions.append(c.attr_bytes());
                break;
            case ActionAttr::CtResume: {
                const std::uint32_t rid = recirc_id_for(c.table(), ct.ct().zone);
                res.actions.push_back(kern::OdpAction::recirc(rid));
                return res; // translation resumes on the recirculated upcall
            }
            case ActionAttr::GotoTable:
                table_id = c.table();
                advanced = true;
                break;
            case ActionAttr::Controller:
                res.actions.push_back(kern::OdpAction::userspace());
                break;
            case ActionAttr::Drop:
                res.dropped = true;
                return res;
            case ActionAttr::Recirc:
            case ActionAttr::Userspace:
                break; // datapath-only: never in a rule
            }
        }
        if (!advanced) break; // no goto: pipeline ends here
    }
    if (res.actions.empty() && !res.dropped) res.dropped = true;
    return res;
}

} // namespace ovsx::ovs

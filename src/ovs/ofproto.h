// ofproto: the OpenFlow-speaking control layer of ovs-vswitchd.
//
// Holds the multi-table rule pipeline (NSX installs ~103k rules across
// ~40 tables — Table 3), classifies upcalled packets through it, and
// translates ("xlate") the matched action chain into flat datapath
// actions plus a megaflow wildcard mask — the union of every mask
// probed, so the installed cache entry is exactly as wildcarded as the
// decision that produced it.
//
// Classifier layout: a table is one tuple-space search, found by its
// 8-bit id in a 256-entry array. Its subtables (one per distinct mask,
// in order of first appearance) each carry a net::MaskPlan and one
// net::SlotTable of {hash, rule} slots, homed by the plan's hash of the
// key, which is the masked-key hash. Every subtable of a visited table
// is probed, so the table keeps the OR of its masks and a visit ORs that
// into the wildcards once. The highest priority wins; a tie goes to the
// earlier subtable, then to the earlier-added rule (the slot table keeps
// the rules of one hash along their probe run in add order).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "kern/odp.h"
#include "net/flow.h"
#include "net/slot_table.h"
#include "net/tunnel_key.h"
#include "sync/annotations.h"

namespace ovsx::ovs {

struct Match {
    net::FlowKey key;
    net::FlowMask mask;

    // The masked key (computed on construction of the rule).
    net::FlowKey masked() const { return mask.apply(key); }
};

struct OfAction {
    enum class Type {
        Output,     // forward to OpenFlow port
        SetField,
        PushVlan,
        PopVlan,
        SetTunnel,
        Ct,         // conntrack, then recirculate into `ct_table`
        GotoTable,
        Meter,
        Controller, // punt to the controller (odp Userspace)
        Drop,
    };

    Type type = Type::Drop;
    std::uint32_t port = 0;
    net::FlowKey set_value;
    net::FlowMask set_mask;
    std::uint16_t vlan_tci = 0;
    net::TunnelKey tunnel;
    kern::CtSpec ct;
    int ct_table = -1; // table to resume in after ct recirculation
    std::uint8_t table = 0;
    std::uint32_t meter_id = 0;

    static OfAction output(std::uint32_t port);
    static OfAction set_field(const net::FlowKey& v, const net::FlowMask& m);
    static OfAction push_vlan(std::uint16_t tci);
    static OfAction pop_vlan();
    static OfAction set_tunnel(const net::TunnelKey& key);
    static OfAction conntrack(const kern::CtSpec& spec, int recirc_table);
    static OfAction goto_table(std::uint8_t table);
    static OfAction meter(std::uint32_t id);
    static OfAction controller();
    static OfAction drop();

    // The codec OfActions uses: the datapath kinds encode as their ODP
    // attributes, a ct() that resumes in a table as a Ct attribute
    // followed by CtResume, and goto_table and controller() as the
    // OpenFlow-only attributes.
    void encode(kern::ActionBuf& b) const;
    static OfAction decode(const kern::ActionCursor& c);
    static void skip(kern::ActionCursor& c);
};

// A rule's actions (ovs-vswitchd's ofpacts), in the attribute encoding.
using OfActions = kern::ActionList<OfAction>;

struct OfRule {
    std::uint8_t table = 0;
    std::int32_t priority = 0;
    Match match;
    OfActions actions;
    std::uint64_t cookie = 0;
    mutable std::uint64_t n_matched = 0; // xlate hits
};

// Result of translating one flow through the pipeline.
struct XlateResult {
    kern::OdpActions actions;
    net::FlowMask wildcards;  // fields the decision depended on
    int tables_visited = 0;
    int rules_matched = 0;
    bool dropped = false;
};

class Ofproto {
public:
    Ofproto();

    // ---- rule management ---------------------------------------------
    void add_rule(OfRule rule);
    std::size_t rule_count() const { return rule_count_; }
    std::size_t table_count() const; // tables with at least one rule
    // Distinct fields matched across all rules (Table 3's "matching
    // fields among all rules" statistic).
    int distinct_match_fields() const;
    void clear();

    // ---- translation ------------------------------------------------------
    // Classifies `key` starting at table 0 (or at the resume point for
    // recirculated keys, identified by key.recirc_id) and returns the
    // flattened datapath actions + wildcards.
    XlateResult xlate(const net::FlowKey& key) const;

    // Number of distinct recirculation ids handed out.
    std::size_t recirc_ids() const { return recirc_resume_.size(); }

    std::uint64_t xlate_count() const { return xlate_count_; }

private:
    // The rules of one table that share one mask. Probe-side members
    // first; the full mask is for add_rule.
    struct Subtable {
        explicit Subtable(const net::FlowMask& m) : plan(m), mask(m) {}

        net::SlotTable<const OfRule*> rules;
        net::MaskPlan plan;
        net::FlowMask mask;
    };

    struct Table {
        std::vector<Subtable> subtables;
        net::FlowMask mask; // OR of the subtables' masks
        std::size_t n_rules = 0;
    };

    OVSX_NO_ALLOC const OfRule* classify(const Table& table, const net::FlowKey& key,
                                         net::FlowMask* wildcards) const;
    std::uint32_t recirc_id_for(std::uint8_t resume_table, std::uint16_t zone) const;

    std::vector<std::unique_ptr<OfRule>> rules_;
    std::array<Table, 256> tables_; // by table id; no rules: table-miss
    std::size_t rule_count_ = 0;
    mutable std::map<std::pair<std::uint8_t, std::uint16_t>, std::uint32_t> recirc_alloc_;
    mutable std::map<std::uint32_t, std::uint8_t> recirc_resume_; // id -> resume table
    mutable std::uint32_t next_recirc_id_ = 1;
    mutable std::uint64_t xlate_count_ = 0;
};

} // namespace ovsx::ovs

// Netfilter-style connection tracking for the simulated kernel.
//
// Tracks bidirectional 5-tuple+zone connections with NEW/ESTABLISHED
// state, per-zone connection limits (the paper's §2.1.1 "per-zone
// connection limiting" example feature), mark storage and SNAT/DNAT
// with deterministic port-range allocation. The userspace datapath
// rewrites this state machine (ovs/ct.h) — exactly the duplication the
// paper's §6 "features must be reimplemented" lesson describes — over
// the same connection table (kern/ct_table.h). The differential harness
// diffs the two tables entry by entry, so the semantics here must match
// ovs::UserspaceConntrack bit for bit.
#pragma once

#include <cstdint>

#include "kern/ct_table.h"
#include "kern/odp.h" // CtSpec / NatSpec
#include "net/flow.h"
#include "net/packet.h"
#include "sim/context.h"
#include "sim/costs.h"
#include "sim/time.h"
#include "sync/annotations.h"

namespace ovsx::kern {

// Result of passing a packet through conntrack: the CS_* bits for the
// flow key plus the entry for mark access.
struct CtResult {
    std::uint8_t state = 0; // kCtState* bits
    CtEntry* entry = nullptr;
};

// The kernel's state machine over the shared connection table. The
// table (shards, timer-wheel expiry, zones, NAT-port allocation,
// snapshots, the san walk) is CtTable's; what is this tracker's own is
// process() and apply_nat(): state bits, commit/mark, RST teardown,
// ICMP RELATED and its virtual charges. Its locks read
// "kern.ct.shard.<i>" and "kern.ct.zones", its table "kern.ct".
//
// CtResult.entry and find() return interior pointers stable only until
// the next mutating call; snapshot() copies for longer-lived use.
class Conntrack : public CtTable {
public:
    explicit Conntrack(const sim::CostModel& costs = sim::CostModel::baseline(),
                       std::uint32_t shards = 1);

    // Classifies `key` in spec.zone, creating an unconfirmed entry for
    // NEW connections; spec.commit confirms it. When spec.nat is set and
    // the connection commits, binds (and remembers) the NAT rewrite —
    // reply-direction packets are de-NATed automatically. Updates
    // pkt.meta() ct fields, rewrites headers for NAT, and returns the
    // resulting state bits.
    OVSX_HOT CtResult process(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                              sim::ExecContext& ctx, sim::Nanos now = 0);

    // Zone/commit-only convenience form (no NAT, no mark).
    CtResult process(net::Packet& pkt, const net::FlowKey& key, std::uint16_t zone, bool commit,
                     sim::ExecContext& ctx, sim::Nanos now = 0)
    {
        CtSpec spec;
        spec.zone = zone;
        spec.commit = commit;
        return process(pkt, key, spec, ctx, now);
    }

private:
    // The state machine proper, under the locks CtTable::routed took
    // for `tuple`: the tuple of the first index probe (the ICMP-cited
    // inner tuple for ICMP errors, the packet's own otherwise), routed
    // to shard `home`.
    CtResult process_routed(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                            const CtTuple& tuple, bool icmp_error, sim::ExecContext& ctx,
                            sim::Nanos now, std::uint32_t home);
    void apply_nat(net::Packet& pkt, const CtEntry& entry, bool is_reply,
                   sim::ExecContext& ctx);

    const sim::CostModel& costs_;
};

} // namespace ovsx::kern

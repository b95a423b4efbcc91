// Userspace connection tracking with NAT.
//
// The paper's §4/§6: once the datapath moved to userspace, OVS had to
// reimplement the kernel's conntrack/NAT. What is written twice here is
// the state machine: this process() and apply_nat() classify, commit,
// mark, tear down on RST, relate ICMP errors and NAT exactly as
// kern::Conntrack does, but as independent code with its own virtual
// charges, coverage names and trace hops, and it also records the TCP
// flags each connection has seen. The connection table underneath —
// shards, timer-wheel idle expiry, zone limits, NAT-port allocation,
// snapshots and the san walk — is the one kern::CtTable both trackers
// share.
#pragma once

#include <cstdint>

#include "kern/conntrack.h" // the kernel tracker this one is diffed against
#include "kern/ct_table.h"
#include "kern/odp.h" // CtSpec
#include "net/packet.h"
#include "sim/context.h"
#include "sim/costs.h"
#include "sim/time.h"
#include "sync/annotations.h"

namespace ovsx::ovs {

using kern::CtTuple;

// The userspace state machine over the shared connection table. Its
// locks read "ovs.uct.shard.<i>" and "ovs.uct.zones", its table
// "ovs.uct". find() returns an entry stable until the connection is
// erased, the same contract as kern::Conntrack; snapshot() copies.
class UserspaceConntrack : public kern::CtTable {
public:
    explicit UserspaceConntrack(const sim::CostModel& costs = sim::CostModel::baseline(),
                                std::uint32_t shards = 1);

    // Runs a packet through conntrack per `spec`. When spec.nat is set
    // and the connection is committed, applies (and remembers) the NAT
    // rewrite — allocating a port from the requested range — and
    // reply-direction packets are de-NATed automatically. Updates
    // pkt.meta() and rewrites headers for NAT. Returns the state bits
    // written to the packet. Must stay semantically identical to
    // kern::Conntrack::process: the differential harness diffs the two
    // tables entry by entry.
    OVSX_HOT std::uint8_t process(net::Packet& pkt, const net::FlowKey& key,
                                  const kern::CtSpec& spec, sim::ExecContext& ctx,
                                  sim::Nanos now = 0);

private:
    // The state machine proper, under the locks CtTable::routed took
    // for `tuple` (the ICMP-cited inner tuple for ICMP errors, the
    // packet's own otherwise), routed to shard `home`.
    std::uint8_t process_routed(net::Packet& pkt, const net::FlowKey& key,
                                const kern::CtSpec& spec, const CtTuple& tuple, bool icmp_error,
                                sim::ExecContext& ctx, sim::Nanos now, std::uint32_t home);
    void apply_nat(net::Packet& pkt, const kern::CtEntry& entry, bool is_reply,
                   sim::ExecContext& ctx);

    const sim::CostModel& costs_;
};

} // namespace ovsx::ovs

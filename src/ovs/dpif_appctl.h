// The provider half of the ovs-appctl surface. Every Dpif answers the
// same eight commands with the same value shape, rendered here from its
// query interface (ovs/dpif.h), so tooling, golden tests and the
// differential harness compare providers field by field:
//
//   dpif-netdev/pmd-stats-show  {datapath, stats: {hits, misses, lost},
//                                pmds: [{name, rxqs, emc/megaflow
//                                counters, busy_ns by CPU class}]}
//   dpif-netdev/pmd-rxq-show    {datapath, pmds: [{name, rxqs: [{port,
//                                queue, busy_ns, busy_pct, windows}]}]}
//   dpif-netdev/pmd-rebalance   {datapath, rebalanced, detail}
//   dpctl/dump-flows            {flow_count, flows: [sorted lines]}
//   conntrack/show              {count, entries: [...]}
//   xsk/ring-stats              {rings: [{dev, queue, ring sizes, ...}]}
//   pmd/perf-show               {datapath, pmds: {name: PmdPerf row}}
//   pmd/perf-log                {datapath, pmds: {name: PmdPerf log}}
//
// Providers without PMD threads or AF_XDP sockets answer with empty
// collections.
#pragma once

#include <vector>

#include "kern/ct_table.h"
#include "obs/appctl.h"
#include "obs/value.h"

namespace ovsx::ovs {

class Dpif;

// Registers the eight commands on `appctl`. The handlers capture
// `dpif`: the registry must not outlive the provider.
void register_dpif_commands(obs::Appctl& appctl, Dpif& dpif);

// conntrack/show's value: {"count": N, "entries": [{src, dst, sport,
// dport, proto, zone, confirmed, seen_reply, mark, nat, reply_*,
// packets}, ...]}.
obs::Value render_ct_snapshot(const std::vector<kern::CtSnapshotEntry>& entries);

} // namespace ovsx::ovs

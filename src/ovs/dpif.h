// Dpif: the datapath interface ofproto programs against. Three
// providers exist, mirroring the paper's comparison matrix:
//   - DpifNetdev  (ovs/dpif_netdev.h)  userspace datapath (AF_XDP/DPDK)
//   - DpifKernel  (ovs/dpif_kernel.h)  the traditional kernel module
//   - DpifEbpf    (ovs/dpif_ebpf.h)    the rejected all-eBPF datapath
//
// Besides the flow and execute calls, every provider answers a small
// read-only query interface (stats, ct_snapshot, perfs, pmds, xsk_rings)
// plus the rebalance trigger. register_dpif_commands (ovs/dpif_appctl.h)
// renders the eight provider appctl commands from it, with one shape on
// every provider: dpif-netdev/pmd-stats-show, dpif-netdev/pmd-rxq-show,
// dpif-netdev/pmd-rebalance, dpctl/dump-flows, conntrack/show,
// xsk/ring-stats, pmd/perf-show and pmd/perf-log.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kern/ct_table.h"
#include "kern/odp.h"
#include "net/flow.h"
#include "net/packet.h"
#include "obs/perf.h"
#include "san/report.h"
#include "sim/context.h"

namespace ovsx::ovs {

class Dpif {
public:
    // Flow-table miss: ofproto must translate and (usually) install a
    // datapath flow, then re-inject the packet via execute().
    using UpcallHandler = std::function<void(std::uint32_t in_port, net::Packet&&,
                                             const net::FlowKey&, sim::ExecContext&)>;

    virtual ~Dpif() = default;

    virtual const char* type() const = 0;
    virtual void set_upcall_handler(UpcallHandler handler) = 0;

    virtual void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                          kern::OdpActions actions) = 0;
    virtual void flow_flush() = 0;
    virtual std::size_t flow_count() const = 0;
    // Every installed datapath flow (OVS_FLOW_CMD_DUMP), for per-entry
    // end-state diffing across providers.
    virtual std::vector<kern::OdpFlowEntry> flow_dump() const = 0;
    // Cross-checks the san table audits against the provider's real
    // tables; violations are reported through san::report.
    virtual void san_check(san::Site site) const { (void)site; }

    virtual void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                         sim::ExecContext& ctx) = 0;

    // ---- introspection ---------------------------------------------------
    // Classifier totals of this instance. A recirculation pass counts as
    // one more hit or miss. `lost` is OVS's n_lost: misses dropped
    // because no upcall handler is set, and Userspace-action punts that
    // found the punt queue full (kern::kPuntQueueDepth); other drops
    // are not counted.
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t lost = 0;
    };
    virtual Stats stats() const = 0;
    // A snapshot of the tracker the provider's ct() actions use.
    virtual std::vector<kern::CtSnapshotEntry> ct_snapshot() const = 0;
    // Profilers of the contexts where the provider classifies packets:
    // its PMD threads, or the NIC softirq contexts of its device ports.
    virtual std::vector<const obs::PmdPerf*> perfs() const = 0;

    // One PMD thread and its rxqs. busy_pct is the EWMA-windowed share
    // of the sampling window spent on the queue; windows counts the
    // completed windows behind it.
    struct RxqRow {
        std::string port;
        std::uint32_t queue = 0;
        std::uint64_t busy_ns = 0; // cumulative
        double busy_pct = 0.0;
        std::uint64_t windows = 0;
    };
    struct PmdRow {
        std::string name;
        const sim::ExecContext* ctx = nullptr;
        std::vector<RxqRow> rxqs;
    };
    // One AF_XDP socket's ring occupancy and delivery counters.
    struct XskRing {
        std::string dev;
        std::uint32_t queue = 0;
        std::uint32_t rx_size = 0;
        std::uint32_t tx_size = 0;
        std::uint32_t fill_size = 0;
        std::uint32_t comp_size = 0;
        std::uint64_t rx_delivered = 0;
        std::uint64_t rx_dropped_no_frame = 0;
        std::uint64_t rx_dropped_ring_full = 0;
        std::uint64_t tx_completed = 0;
    };
    struct Rebalance {
        bool moved = false;
        std::string detail;
    };
    // Providers without PMD threads or AF_XDP sockets keep the defaults.
    virtual std::vector<PmdRow> pmds() const { return {}; }
    virtual std::vector<XskRing> xsk_rings() const { return {}; }
    // Reassigns rxqs across PMDs now if that strictly lowers the
    // busiest PMD's load.
    virtual Rebalance rebalance() { return {false, "no PMD threads"}; }
};

} // namespace ovsx::ovs

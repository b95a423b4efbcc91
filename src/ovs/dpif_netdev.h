// dpif-netdev: the userspace datapath. Ports are Netdevs; the per-packet
// pipeline is EMC -> megaflow -> upcall; actions execute in userspace
// with userspace conntrack, meters and tunnel encap (resolved from the
// netlink replica cache). PMD threads poll assigned (port, queue) pairs,
// each through its own EMC and megaflow cache, as OVS's PMDs own their
// EMC and dpcls.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/int_hdr.h"
// No datapath code uses net::PacketBatch any more; the include stays
// because the wall-clock benchmark reaches PacketBatch::kCapacity
// through this header.
#include "net/packet_batch.h"
#include "net/tunnel.h"
#include "obs/window.h"
#include "ovs/ct.h"
#include "ovs/dpif.h"
#include "ovs/emc.h"
#include "ovs/megaflow.h"
#include "ovs/meter.h"
#include "ovs/netdev.h"
#include "ovs/netlink_cache.h"
#include "sync/annotations.h"

namespace ovsx::ovs {

class DpifNetdev : public Dpif {
public:
    DpifNetdev(kern::Kernel& host, const sim::CostModel& costs = sim::CostModel::baseline());

    const char* type() const override { return "netdev"; }

    // ---- ports ----------------------------------------------------------
    std::uint32_t add_port(std::unique_ptr<Netdev> netdev);
    // Userspace tunnel vport: encap on output, auto-decap on underlay RX.
    std::uint32_t add_tunnel_port(const std::string& name, net::TunnelType type,
                                  std::uint32_t local_ip);
    Netdev* port_netdev(std::uint32_t port_no);
    std::optional<std::uint32_t> port_by_name(const std::string& name) const;

    // ---- flows (Dpif) ---------------------------------------------------------
    void set_upcall_handler(UpcallHandler handler) override { upcall_ = std::move(handler); }
    // A put made during a PMD's poll (its upcall handler's) installs into
    // that PMD's megaflow cache only; any other put installs into every
    // lane, as OVS's put without a PMD id does.
    void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                  kern::OdpActions actions) override;
    // Every lane's megaflow cache and EMC.
    void flow_flush() override;
    // The PMDs' flows summed, as OVS's n_flows; the non-PMD lane's when
    // there is no PMD. flow_dump() lists the same set.
    std::size_t flow_count() const override;
    std::vector<kern::OdpFlowEntry> flow_dump() const override;
    void san_check(san::Site site) const override;
    void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                 sim::ExecContext& ctx) override;

    // ---- introspection (Dpif) -------------------------------------------
    // Instance-local totals: hits are EMC + megaflow hits, misses are
    // upcalls.
    Stats stats() const override { return {stats_hits_, upcall_count_, lost_}; }
    std::vector<kern::CtSnapshotEntry> ct_snapshot() const override { return ct_.snapshot(); }
    std::vector<const obs::PmdPerf*> perfs() const override;
    std::vector<PmdRow> pmds() const override;
    std::vector<XskRing> xsk_rings() const override;
    // Applies any strict improvement (threshold 1.0), whether or not
    // auto-LB is enabled.
    Rebalance rebalance() override;

    // ---- PMD threads (O1) --------------------------------------------------------
    // Adds a PMD thread, its megaflow cache holding the non-PMD lane's
    // flows (every put made outside a poll); returns its index. Queues
    // are then pinned with pmd_assign().
    int add_pmd(const std::string& name);
    void pmd_assign(int pmd, std::uint32_t port_no, std::uint32_t queue);
    // One poll iteration over a PMD's queues, classified through its EMC
    // and megaflow cache (an upcall handler's execute() included); returns
    // packets processed.
    OVSX_NO_ALLOC std::uint32_t pmd_poll_once(int pmd);
    sim::ExecContext& pmd_ctx(int pmd) { return pmds_[static_cast<std::size_t>(pmd)].ctx; }
    int pmd_count() const { return static_cast<int>(pmds_.size()); }

    // Non-PMD processing entry: poll every port once on the main thread
    // (the pre-O1 configuration), through the non-PMD lane's caches.
    std::uint32_t main_thread_poll_once(sim::ExecContext& ctx);

    // Datapath entry for one rx burst: counts the burst (batch.flush,
    // batch.occupancy, the INT occupancy field), admits each packet and
    // runs it through the per-packet pipeline in arrival order, then
    // flushes the per-port output batches once. pipeline() is the only
    // classification path, for rx bursts and recirculation alike.
    OVSX_NO_ALLOC void process_batch(std::uint32_t in_port, std::vector<net::Packet>&& batch,
                                     sim::ExecContext& ctx);

    // ---- in-band telemetry (INT) ---------------------------------------
    // When enabled this switch participates in fabric INT: the Geneve
    // encap path attaches the option at the origin, every transmitted
    // Geneve frame already carrying the option gets one hop record
    // (switch id, tier, size of the rx burst being processed, cumulative
    // latency ticks) stamped on the batched dataplane, and tunnel decap
    // pops the records into obs::int_export.
    void set_int(const net::IntConfig& cfg) { int_cfg_ = cfg; }
    const net::IntConfig& int_config() const { return int_cfg_; }

    // ---- subsystems ---------------------------------------------------------------
    // The first PMD's caches, or the non-PMD lane's when there is no PMD.
    Emc& emc() { return first_lane().emc; }
    MegaflowCache& megaflow() { return *first_lane().megaflow; }
    UserspaceConntrack& ct() { return ct_; }
    MeterTable& meters() { return meters_; }
    NetlinkCache& netlink_cache() { return netlink_; }

    // Virtual time for meters / ct timestamps. Also drives the telemetry
    // window: every crossed sampling boundary snapshots per-PMD/per-rxq
    // busy-ns and coverage counters, publishes the window, and (when
    // auto-LB is enabled) runs a rebalance check.
    void set_now(sim::Nanos now);
    sim::Nanos now() const { return now_; }

    // ---- windowed telemetry + §4.2 auto-load-balancing -------------------
    // 0 disables windowed sampling (the default).
    void set_window_interval(sim::Nanos interval_ns);
    const obs::Window& window() const { return window_; }

    // Enables rebalancing rxqs across PMDs when the windowed load
    // imbalance would drop the busiest PMD's load by at least
    // `min_improvement` (ratio, OVS's pmd-auto-lb-improvement-threshold
    // in spirit; 1.25 = busiest PMD 25% less loaded).
    void set_auto_lb(bool enabled, double min_improvement = 1.25);
    bool auto_lb() const { return auto_lb_; }

    struct RebalanceEvent {
        sim::Nanos at = 0;         // virtual time of the decision
        std::uint64_t window = 0;  // completed windows at that point
        std::string detail;        // deterministic, seed-reproducible
    };
    const std::vector<RebalanceEvent>& rebalance_events() const { return rebalance_events_; }

    // Packets punted by an explicit Userspace action. At most
    // kern::kPuntQueueDepth wait; a punt beyond that is dropped and
    // counted in stats().lost.
    std::vector<net::Packet>& punted() { return punted_; }

    // Revalidation sweep, lane by lane: expires idle megaflows, drops
    // dead entries from the EMC and re-ranks the megaflow subtables.
    void revalidate();

    // EMC insertion sampling: insert one in `inv_prob` megaflow hits
    // (OVS's emc-insert-inv-prob, default 100; counted per PMD here so
    // runs are deterministic). 1 = always insert.
    void set_emc_insert_inv_prob(std::uint32_t inv_prob)
    {
        emc_insert_inv_prob_ = inv_prob ? inv_prob : 1;
    }

    // Gives every PMD (also those added later) and the non-PMD lane a
    // fresh EMC of `entries` slots, discarding cached flows: meant for
    // configuration time. The differential harness sizes its thousands
    // of short-lived instances well below OVS's per-PMD 8192 default.
    void set_emc_entries(std::uint32_t entries);

    // Every packet the datapath dropped: lost misses, recursion,
    // missing ports, tunnel resolution and meters.
    std::uint64_t dropped() const { return dropped_; }

private:
    struct Port {
        std::uint32_t port_no = 0;
        std::string name;
        std::unique_ptr<Netdev> netdev;                 // null for tunnel vports
        std::optional<net::TunnelType> tunnel;
        std::uint32_t tunnel_local_ip = 0;
        // Output batched during an rx burst or an execute(), and the
        // batch a flush is sending; both keep their capacity from burst
        // to burst.
        std::vector<net::Packet> out;
        std::vector<net::Packet> sending;
    };

    struct Rxq {
        std::uint32_t port_no = 0;
        std::uint32_t queue = 0;
        std::uint64_t busy_ns = 0; // cumulative processing time, survives moves
    };

    // A PMD thread, or the non-PMD lane. Only the thread running it
    // touches its caches, so they take no lock. The megaflow cache sits
    // behind a pointer because it must not move (its destructor clears
    // its san audit scope).
    struct Pmd {
        std::string name;
        sim::ExecContext ctx;
        std::vector<Rxq> rxqs;
        Emc emc;
        std::unique_ptr<MegaflowCache> megaflow = std::make_unique<MegaflowCache>();
        std::uint64_t emc_insert_counter = 0;
    };

    Pmd& first_lane() { return pmds_.empty() ? nonpmd_ : pmds_.front(); }
    // Visits the non-PMD lane, then every PMD.
    template <typename Fn> void for_each_lane(Fn&& fn)
    {
        fn(nonpmd_);
        for (Pmd& pmd : pmds_) fn(pmd);
    }

    std::string port_name(std::uint32_t port_no) const;
    std::string rxq_name(const Rxq& rxq) const;
    void sample_window();
    bool maybe_rebalance(double min_improvement);

    OVSX_NO_ALLOC std::uint32_t poll_rxq(Netdev& netdev, std::uint32_t port_no,
                                         std::uint32_t queue, sim::ExecContext& ctx);
    void pipeline(net::Packet&& pkt, sim::ExecContext& ctx, int depth);
    void output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx);
    void output_tunnel(net::Packet&& pkt, const Port& vport, sim::ExecContext& ctx);
    bool try_tunnel_decap(net::Packet& pkt, sim::ExecContext& ctx);
    void run_actions(net::Packet&& pkt, const kern::OdpActions& actions, sim::ExecContext& ctx,
                     int depth);
    OVSX_NO_ALLOC void flush_output_batches(sim::ExecContext& ctx);
    void flush_reentered(sim::ExecContext& ctx);

    kern::Kernel& host_;
    const sim::CostModel& costs_;
    std::map<std::uint32_t, Port> ports_;
    std::map<int, std::uint32_t> ifindex_to_port_; // underlay resolution
    std::uint32_t next_port_no_ = 1;
    UserspaceConntrack ct_;
    MeterTable meters_;
    NetlinkCache netlink_;
    UpcallHandler upcall_;
    std::vector<Pmd> pmds_;
    // OVS's non-PMD thread: main-thread polls, and any execute() or
    // process_batch() made outside a PMD poll, use its caches.
    Pmd nonpmd_;
    // The lane whose poll is running. Dpif::execute() and flow_put()
    // carry no PMD, so the pipeline and puts find their lane here.
    Pmd* pmd_ = &nonpmd_;
    std::uint32_t emc_entries_ = Emc::kDefaultEntries;
    std::vector<net::Packet> rx_batch_; // keeps its capacity from poll to poll
    bool batching_outputs_ = false;
    bool flushing_ = false;
    std::vector<net::Packet> punted_;
    sim::Nanos now_ = 0;
    std::uint64_t upcall_count_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t lost_ = 0; // misses with no upcall handler, punts to a full queue
    // Instance-local EMC+megaflow hit total (stats().hits); the global
    // coverage counters aggregate across instances.
    std::uint64_t stats_hits_ = 0;
    std::uint32_t emc_insert_inv_prob_ = 100;
    net::IntConfig int_cfg_;
    std::uint16_t last_batch_occupancy_ = 1; // INT occupancy field: last rx burst size
    obs::Window window_;
    bool auto_lb_ = false;
    double auto_lb_min_improvement_ = 1.25;
    std::vector<RebalanceEvent> rebalance_events_;
};

} // namespace ovsx::ovs

// dpif-netdev: the userspace datapath. Ports are Netdevs; the per-packet
// pipeline is EMC -> megaflow -> upcall; actions execute in userspace
// with userspace conntrack, meters and tunnel encap (resolved from the
// netlink replica cache). PMD threads poll assigned (port, queue) pairs.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

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
    void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                  kern::OdpActions actions) override;
    void flow_flush() override;
    std::size_t flow_count() const override { return megaflow_.flow_count(); }
    std::vector<kern::OdpFlowEntry> flow_dump() const override;
    void san_check(san::Site site) const override
    {
        megaflow_.san_check(site);
        netlink_.san_check(site);
    }
    void register_appctl(obs::Appctl& appctl) override;
    void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                 sim::ExecContext& ctx) override;

    // ---- PMD threads (O1) --------------------------------------------------------
    // Adds a PMD thread; returns its index. Queues are then pinned with
    // pmd_assign().
    int add_pmd(const std::string& name);
    void pmd_assign(int pmd, std::uint32_t port_no, std::uint32_t queue);
    // One poll iteration over a PMD's queues; returns packets processed.
    std::uint32_t pmd_poll_once(int pmd);
    sim::ExecContext& pmd_ctx(int pmd) { return pmds_[static_cast<std::size_t>(pmd)].ctx; }
    int pmd_count() const { return static_cast<int>(pmds_.size()); }

    // Non-PMD processing entry: poll every port once on the main thread
    // (the pre-O1 configuration).
    std::uint32_t main_thread_poll_once(sim::ExecContext& ctx);

    // Datapath entry for one rx burst: counts the burst (batch.flush,
    // batch.occupancy, the INT occupancy field), admits each packet and
    // runs it through the per-packet pipeline in arrival order, then
    // flushes the per-port output batches once. pipeline() is the only
    // classification path, for rx bursts and recirculation alike.
    void process_batch(std::uint32_t in_port, std::vector<net::Packet>&& batch,
                       sim::ExecContext& ctx);

    // ---- in-band telemetry (INT) ---------------------------------------
    // When enabled this switch participates in fabric INT: the Geneve
    // encap path attaches the option at the origin, every transmitted
    // Geneve frame already carrying the option gets one hop record
    // (switch id, tier, size of the rx burst being processed, cumulative
    // latency ticks) stamped on the batched dataplane, and tunnel decap
    // pops the records into obs::int_export.
    struct IntConfig {
        bool enabled = false;
        std::uint32_t switch_id = 0;
        std::uint8_t tier = 0; // net::kIntTier{Host,Leaf,Spine}
        std::uint8_t max_hops = 8;
        bool attach_on_encap = true; // origin host adds the option
    };
    void set_int(const IntConfig& cfg) { int_cfg_ = cfg; }
    const IntConfig& int_config() const { return int_cfg_; }

    // ---- subsystems ---------------------------------------------------------------
    Emc& emc() { return emc_; }
    MegaflowCache& megaflow() { return megaflow_; }
    UserspaceConntrack& ct() { return ct_; }
    MeterTable& meters() { return meters_; }
    NetlinkCache& netlink_cache() { return netlink_; }

    // Virtual time for meters / ct timestamps. Also drives the telemetry
    // window: every crossed sampling boundary snapshots per-PMD/per-rxq
    // busy-ns and coverage counters, publishes the window, and (when
    // auto-LB is enabled) runs a rebalance check.
    void set_now(sim::Nanos now);
    sim::Nanos now() const { return now_; }

    // ---- sharding --------------------------------------------------------
    // Pins the shard count of the megaflow cache and the userspace
    // conntrack (power of two, config-time only) and disables the
    // default add_pmd() auto-sizing (next power of two >= PMD count).
    void set_shard_count(std::uint32_t n);

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

    // Appctl-triggered rebalance: applies any strict improvement
    // (threshold 1.0) regardless of whether auto-LB is enabled.
    bool rebalance_now();

    // Packets punted by an explicit Userspace action.
    std::vector<net::Packet>& punted() { return punted_; }

    // Revalidation sweep: drops dead EMC entries and re-ranks subtables.
    void revalidate();

    // EMC insertion sampling: insert one in `inv_prob` megaflow hits
    // (OVS's emc-insert-inv-prob, default 100; counter-based here so
    // runs are deterministic). 1 = always insert.
    void set_emc_insert_inv_prob(std::uint32_t inv_prob)
    {
        emc_insert_inv_prob_ = inv_prob ? inv_prob : 1;
    }

    // Replaces the EMC with a fresh table of `entries` slots (discards
    // any cached flows — meant for configuration time, before traffic).
    // The differential harness sizes its thousands of short-lived
    // instances well below OVS's per-PMD 8192 default.
    void set_emc_entries(std::uint32_t entries) { emc_.resize(entries); }

    std::uint64_t upcalls() const { return upcall_count_; }
    std::uint64_t dropped() const { return dropped_; }
    // pmd-stats-show "hits": EMC + megaflow hits of THIS instance.
    std::uint64_t stats_hits() const { return stats_hits_; }

private:
    struct Port {
        std::uint32_t port_no = 0;
        std::string name;
        std::unique_ptr<Netdev> netdev;                 // null for tunnel vports
        std::optional<net::TunnelType> tunnel;
        std::uint32_t tunnel_local_ip = 0;
    };

    struct Rxq {
        std::uint32_t port_no = 0;
        std::uint32_t queue = 0;
        std::uint64_t busy_ns = 0; // cumulative processing time, survives moves
    };

    struct Pmd {
        std::string name;
        sim::ExecContext ctx;
        std::vector<Rxq> rxqs;
    };

    std::string rxq_name(const Rxq& rxq) const;
    void sample_window();
    bool maybe_rebalance(double min_improvement);

    void pipeline(net::Packet&& pkt, sim::ExecContext& ctx, int depth);
    void output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx);
    void output_tunnel(net::Packet&& pkt, const Port& vport, sim::ExecContext& ctx);
    bool try_tunnel_decap(net::Packet& pkt, sim::ExecContext& ctx);
    void maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx);
    void run_actions(net::Packet&& pkt, const kern::OdpActions& actions, sim::ExecContext& ctx,
                     int depth);
    void flush_output_batches(sim::ExecContext& ctx);

    kern::Kernel& host_;
    const sim::CostModel& costs_;
    std::map<std::uint32_t, Port> ports_;
    std::map<int, std::uint32_t> ifindex_to_port_; // underlay resolution
    std::uint32_t next_port_no_ = 1;
    Emc emc_;
    MegaflowCache megaflow_;
    UserspaceConntrack ct_;
    MeterTable meters_;
    NetlinkCache netlink_;
    UpcallHandler upcall_;
    std::vector<Pmd> pmds_;
    std::map<std::uint32_t, std::vector<net::Packet>> out_batches_;
    bool batching_outputs_ = false;
    std::vector<net::Packet> punted_;
    sim::Nanos now_ = 0;
    std::uint64_t upcall_count_ = 0;
    std::uint64_t dropped_ = 0;
    // Instance-local EMC+megaflow hit total (pmd-stats-show "hits");
    // the global coverage counters aggregate across instances.
    std::uint64_t stats_hits_ = 0;
    std::uint32_t emc_insert_inv_prob_ = 100;
    std::uint64_t emc_insert_counter_ = 0;
    IntConfig int_cfg_;
    std::uint16_t last_batch_occupancy_ = 1; // INT occupancy field: last rx burst size
    obs::Window window_;
    bool shards_explicit_ = false;
    bool auto_lb_ = false;
    double auto_lb_min_improvement_ = 1.25;
    std::vector<RebalanceEvent> rebalance_events_;
};

} // namespace ovsx::ovs

// The in-kernel OVS datapath module (openvswitch.ko of the original
// split design): a masked flow table (tuple-space search) populated from
// userspace, vports over kernel devices and tunnel endpoints, upcalls on
// misses, and an action executor using kernel facilities (conntrack,
// tunnels, devices).
//
// Flow table: one kern::MegaflowCache (kern/megaflow.h), the classifier
// every PMD of the userspace datapath owns too. The kernel probes it
// most specific mask first: a put that adds a mask reorders it by exact
// bytes, and nothing reranks it by hits.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "kern/device.h"
#include "kern/megaflow.h"
#include "kern/meter.h"
#include "kern/odp.h"
#include "net/flow.h"
#include "net/int_hdr.h"
#include "net/tunnel.h"
#include "san/report.h"
#include "sim/time.h"

namespace ovsx::kern {

class Kernel;

// One datapath port.
struct Vport {
    std::uint32_t port_no = 0;
    std::string name;
    Device* dev = nullptr;                    // device-backed port
    std::optional<net::TunnelType> tunnel;    // tunnel vport
    std::uint32_t tunnel_local_ip = 0;        // local endpoint for tunnel vports
};

class OvsKernelDatapath {
public:
    // Upcall: flow-table miss. The handler (ovs-vswitchd) is expected to
    // install a flow and/or re-inject the packet with execute().
    using UpcallHandler =
        std::function<void(std::uint32_t port_no, net::Packet&&, const net::FlowKey&,
                           sim::ExecContext&)>;

    explicit OvsKernelDatapath(Kernel& kernel);
    ~OvsKernelDatapath();

    Kernel& kernel() { return kernel_; }

    // ---- ports ---------------------------------------------------------
    std::uint32_t add_port(Device& dev);
    std::uint32_t add_tunnel_port(const std::string& name, net::TunnelType type,
                                  std::uint32_t local_ip);
    void del_port(std::uint32_t port_no);
    const Vport* port(std::uint32_t port_no) const;
    const Vport* port_by_name(const std::string& name) const;
    std::vector<const Vport*> ports() const;

    // ---- flow table ----------------------------------------------------------
    void flow_put(const net::FlowKey& key, const net::FlowMask& mask, OdpActions actions);
    bool flow_del(const net::FlowKey& key, const net::FlowMask& mask);
    void flow_flush();
    std::size_t flow_count() const;
    // The revalidator's idle sweep: removes the flows no packet hit
    // since the previous sweep. Returns flows removed.
    std::size_t expire_idle() { return flows_.expire_idle(); }
    // Every installed flow, for per-entry end-state diffing.
    std::vector<OdpFlowEntry> flow_dump() const;
    // The flow table itself: the differential harness digests end state
    // through its copy-free walk and only dumps when digests disagree.
    const MegaflowCache& flows() const { return flows_; }

    // Cross-checks the san table audit against the real table.
    void san_check(san::Site site) const;

    void set_upcall_handler(UpcallHandler handler) { upcall_ = std::move(handler); }
    // Packets punted by an explicit Userspace action: an action upcall
    // (Linux's OVS_PACKET_CMD_ACTION), which ovs-vswitchd receives
    // without executing it again.
    std::vector<net::Packet>& punted() { return punted_; }

    // ---- meters / virtual time ------------------------------------------
    MeterTable& meters() { return meters_; }
    const MeterTable& meters() const { return meters_; }

    // Virtual clock used for meter refill and conntrack timestamps, the
    // same convention as DpifNetdev::set_now. Also drives the host
    // conntrack's timer-wheel tick (ovs_kmod.cpp).
    void set_now(sim::Nanos now);
    sim::Nanos now() const { return now_; }

    // ---- datapath ---------------------------------------------------------------
    // Ingress entry (wired as the rx handler of every device port and
    // tunnel vport): admits one packet and classifies it. The kernel
    // datapath has no compute batching, which is the paper's Table 4
    // story.
    void receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx);

    // Executes actions on a packet (also the userspace re-injection path,
    // OVS_PACKET_CMD_EXECUTE).
    void execute(net::Packet&& pkt, const OdpActions& actions, sim::ExecContext& ctx);

    // ---- in-band telemetry (INT) ---------------------------------------
    // Same role as DpifNetdev::set_int: attach the Geneve INT option at
    // encap, stamp one hop record per transmitted frame that carries
    // the option, pop+export at tunnel decap.
    void set_int(const net::IntConfig& cfg) { int_cfg_ = cfg; }
    const net::IntConfig& int_config() const { return int_cfg_; }

    // ---- statistics -----------------------------------------------------------------
    std::uint64_t hits() const { return flows_.hits(); }
    std::uint64_t misses() const { return flows_.misses(); }
    std::uint64_t lost() const { return lost_; } // misses with no upcall handler

    // Masks currently in the table (diagnostic; the paper's megaflow
    // discussions are about keeping this small).
    std::size_t mask_count() const { return flows_.mask_count(); }

private:
    // One classifier pass, as Linux's ovs_dp_process_packet: parse,
    // look up, then execute the flow's actions or upcall the miss with
    // the packet's in_port. receive() runs it on every admitted packet
    // and execute()'s Recirc action on every recirculated one.
    void process(net::Packet&& pkt, sim::ExecContext& ctx);
    void do_output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx);
    void tunnel_rx(net::Packet&& pkt, sim::ExecContext& ctx);
    void maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx);

    Kernel& kernel_;
    std::map<std::uint32_t, Vport> ports_;
    std::uint32_t next_port_no_ = 1;
    MegaflowCache flows_; // ordered most specific mask first
    UpcallHandler upcall_;
    std::vector<net::Packet> punted_;
    std::uint64_t lost_ = 0;
    int recursion_ = 0;
    MeterTable meters_;
    sim::Nanos now_ = 0;
    net::IntConfig int_cfg_;
};

} // namespace ovsx::kern

#include "kern/ovs_kmod.h"

#include "kern/kernel.h"
#include "kern/stack.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/rewrite.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "san/audit.h"
#include "san/packet_ledger.h"

namespace ovsx::kern {

OvsKernelDatapath::OvsKernelDatapath(Kernel& kernel) : kernel_(kernel) {}

void OvsKernelDatapath::set_now(sim::Nanos now)
{
    now_ = now;
    // Occupancy counters + amortized timer-wheel expiry on the host
    // conntrack (bounded per tick; never an O(table) scan).
    kernel_.conntrack().tick(now);
}

OvsKernelDatapath::~OvsKernelDatapath()
{
    for (const auto& [no, vport] : ports_) {
        if (vport.dev) san::ref_dec(0, "netdev.ref", vport.dev->ifindex(), OVSX_SITE);
    }
}

std::uint32_t OvsKernelDatapath::add_port(Device& dev)
{
    const std::uint32_t port_no = next_port_no_++;
    Vport vport;
    vport.port_no = port_no;
    vport.name = dev.name();
    vport.dev = &dev;
    ports_[port_no] = vport;
    san::ref_inc(0, "netdev.ref", dev.ifindex(), OVSX_SITE);
    dev.set_rx_handler([this, port_no](Device&, net::Packet&& pkt, sim::ExecContext& ctx) {
        receive(port_no, std::move(pkt), ctx);
    });
    return port_no;
}

std::uint32_t OvsKernelDatapath::add_tunnel_port(const std::string& name, net::TunnelType type,
                                                 std::uint32_t local_ip)
{
    const std::uint32_t port_no = next_port_no_++;
    Vport vport;
    vport.port_no = port_no;
    vport.name = name;
    vport.tunnel = type;
    vport.tunnel_local_ip = local_ip;
    ports_[port_no] = vport;

    // Terminate tunnel traffic arriving at the local stack.
    IpStack& stack = kernel_.stack(0);
    if (type == net::TunnelType::Geneve || type == net::TunnelType::Vxlan) {
        const std::uint16_t port =
            type == net::TunnelType::Geneve ? net::kGenevePort : net::kVxlanPort;
        stack.bind(static_cast<std::uint8_t>(net::IpProto::Udp), port,
                   [this](net::Packet&& pkt, const net::FlowKey&, sim::ExecContext& ctx) {
                       tunnel_rx(std::move(pkt), ctx);
                   });
    } else {
        stack.bind(static_cast<std::uint8_t>(net::IpProto::Gre), 0,
                   [this](net::Packet&& pkt, const net::FlowKey&, sim::ExecContext& ctx) {
                       tunnel_rx(std::move(pkt), ctx);
                   });
    }
    return port_no;
}

void OvsKernelDatapath::del_port(std::uint32_t port_no)
{
    auto it = ports_.find(port_no);
    if (it == ports_.end()) return;
    if (it->second.dev) {
        it->second.dev->clear_rx_handler();
        san::ref_dec(0, "netdev.ref", it->second.dev->ifindex(), OVSX_SITE);
    }
    ports_.erase(it);
}

const Vport* OvsKernelDatapath::port(std::uint32_t port_no) const
{
    auto it = ports_.find(port_no);
    return it == ports_.end() ? nullptr : &it->second;
}

const Vport* OvsKernelDatapath::port_by_name(const std::string& name) const
{
    for (const auto& [no, vport] : ports_) {
        if (vport.name == name) return &vport;
    }
    return nullptr;
}

std::vector<const Vport*> OvsKernelDatapath::ports() const
{
    std::vector<const Vport*> out;
    for (const auto& [no, vport] : ports_) out.push_back(&vport);
    return out;
}

void OvsKernelDatapath::flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                                 OdpActions actions)
{
    const std::size_t masks = flows_.mask_count();
    flows_.insert(key, mask, std::move(actions));
    // Keep the most specific masks first so probe order favours them.
    if (flows_.mask_count() > masks) flows_.order_most_specific_first();
}

bool OvsKernelDatapath::flow_del(const net::FlowKey& key, const net::FlowMask& mask)
{
    return flows_.remove(key, mask);
}

void OvsKernelDatapath::flow_flush() { flows_.clear(); }

std::size_t OvsKernelDatapath::flow_count() const { return flows_.flow_count(); }

std::vector<OdpFlowEntry> OvsKernelDatapath::flow_dump() const
{
    std::vector<OdpFlowEntry> out;
    flows_.for_each_entry([&](const CachedFlow& f, const net::FlowMask& m) {
        out.push_back(OdpFlowEntry{f.masked_key, m, f.actions});
    });
    return out;
}

void OvsKernelDatapath::san_check(san::Site site) const { flows_.san_check(site); }

void OvsKernelDatapath::receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx)
{
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    // A receive outside an open profiler iteration (a packet off the
    // wire) is an iteration of its own; one nested in an iteration (a
    // packet the datapath's own output delivers back) joins it.
    // Iteration packets are classifier passes, so recirculation counts
    // extra, matching pmd-stats-show hits+misses.
    const bool iterate = perf && !perf->in_iteration();
    const std::uint64_t classified_before = hits() + misses();
    if (iterate) perf->begin_iteration();
    san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
    {
        obs::PerfStageScope rx(perf, obs::PerfStage::RxPoll);
        ctx.charge(costs.kdp_base);
    }
    pkt.meta().latency_ns += costs.kdp_base;
    pkt.meta().in_port = port_no;
    process(std::move(pkt), ctx);
    if (iterate) perf->end_iteration(hits() + misses() - classified_before);
}

void OvsKernelDatapath::process(net::Packet&& pkt, sim::ExecContext& ctx)
{
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    const net::FlowKey key = net::parse_flow(pkt);
    MegaflowCache::LookupResult res;
    sim::Nanos probe_cost = 0;
    {
        obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
        res = flows_.lookup(key);
        probe_cost = res.probes * costs.kdp_flow_probe;
        ctx.charge(probe_cost);
    }
    pkt.meta().latency_ns += probe_cost;
    if (res.flow) {
        OVSX_COVERAGE_CTX(ctx, "kdp.hit");
        ++res.flow->hits; // ovs_flow_stats_update
        res.flow->bytes += pkt.size();
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::KernelFlow, pkt.meta().latency_ns,
                       "hit", res.probes);
        }
        // The owning reference keeps the actions alive even if execution
        // re-enters flow_put and replaces the flow or grows its table.
        execute(std::move(pkt), res.flow->actions, ctx);
        return;
    }
    OVSX_COVERAGE_CTX(ctx, "kdp.miss");
    if (perf) perf->note_upcall();
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::KernelFlow, pkt.meta().latency_ns, "miss",
                   res.probes);
    }
    if (!upcall_) {
        ++lost_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns, "lost");
        }
        return;
    }
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Upcall, pkt.meta().latency_ns, "");
    }
    obs::PerfStageScope up(perf, obs::PerfStage::Upcall);
    ctx.charge(costs.upcall / 10); // kernel-side upcall enqueue share
    upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
}

void OvsKernelDatapath::tunnel_rx(net::Packet&& pkt, sim::ExecContext& ctx)
{
    auto res = net::decapsulate_auto(pkt);
    if (!res) return;
    net::int_export_popped(res->key.ip_src, res->key.ip_dst, res->geneve_opts);
    // Find the vport for this tunnel type.
    for (const auto& [no, vport] : ports_) {
        if (vport.tunnel && *vport.tunnel == res->type) {
            pkt.meta().tunnel = res->key;
            pkt.meta().csum_verified = true; // validated with the outer frame
            receive(no, std::move(pkt), ctx);
            return;
        }
    }
}

void OvsKernelDatapath::do_output(net::Packet&& pkt, std::uint32_t port_no,
                                  sim::ExecContext& ctx)
{
    const Vport* vport = port(port_no);
    if (!vport) {
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-such-port", port_no);
        }
        return;
    }
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Tx, pkt.meta().latency_ns, "", port_no);
    }
    if (vport->dev) {
        if (int_cfg_.enabled) maybe_int_stamp(pkt, ctx);
        obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
        vport->dev->transmit(std::move(pkt), ctx);
        return;
    }
    if (vport->tunnel) {
        // Encapsulate using staged tunnel metadata, then route the outer
        // packet through the local stack.
        net::TunnelKey tkey = pkt.meta().tunnel;
        if (tkey.ip_src == 0) tkey.ip_src = vport->tunnel_local_ip;
        if (tkey.ip_dst == 0) return; // no destination staged
        IpStack& stack = kernel_.stack(0);
        const auto route = stack.route_lookup(tkey.ip_dst);
        if (!route) return;
        Device* out = kernel_.device(route->ifindex);
        const std::uint32_t next_hop = route->gateway ? route->gateway : tkey.ip_dst;
        const auto nh_mac = stack.neighbor_lookup(next_hop);
        if (!out || !nh_mac) return;

        net::EncapParams params;
        params.outer_src_mac = out->mac();
        params.outer_dst_mac = *nh_mac;
        params.udp_src_port = static_cast<std::uint16_t>(0xc000 | (pkt.meta().rxhash & 0x3fff));
        const auto& costs = kernel_.costs();
        net::encapsulate(pkt, *vport->tunnel, tkey, params);
        ctx.charge(costs.copy(static_cast<std::int64_t>(net::encap_overhead(*vport->tunnel))));
        pkt.meta().tunnel = net::TunnelKey{};
        if (int_cfg_.enabled && int_cfg_.attach_on_encap &&
            *vport->tunnel == net::TunnelType::Geneve) {
            net::int_attach(pkt, int_cfg_.max_hops);
        }
        if (int_cfg_.enabled) maybe_int_stamp(pkt, ctx);
        obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
        out->transmit(std::move(pkt), ctx);
        return;
    }
}

void OvsKernelDatapath::maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx)
{
    // The kernel admits one packet at a time: hop occupancy is always 1.
    if (!net::int_stamp_hop(pkt, int_cfg_, 1)) return;
    OVSX_COVERAGE_CTX(ctx, "int.stamped");
    const auto c = kernel_.costs().copy(static_cast<std::int64_t>(sizeof(net::IntHopRecord)));
    ctx.charge(c);
    pkt.meta().latency_ns += c;
}

void OvsKernelDatapath::execute(net::Packet&& pkt, const OdpActions& actions,
                                sim::ExecContext& ctx)
{
    if (recursion_ > 8) return; // mirror the kernel's recursion limit
    struct Depth { // one level, left on every return
        explicit Depth(int& d) : n(++d) {}
        Depth(const Depth&) = delete;
        Depth& operator=(const Depth&) = delete;
        ~Depth() { --n; }
        int& n;
    } depth(recursion_);
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    obs::PerfStageScope act_scope(perf, obs::PerfStage::Actions);

    for (ActionCursor c = actions.cursor(); !c.done(); c.next()) {
        switch (c.attr()) {
        case OdpAction::Type::Output: {
            if (c.last()) {
                do_output(std::move(pkt), c.port(), ctx);
                return;
            }
            net::Packet clone = pkt; // multicast/mirror copy
            ctx.charge(costs.copy(static_cast<std::int64_t>(pkt.size())));
            do_output(std::move(clone), c.port(), ctx);
            break;
        }
        case OdpAction::Type::PushVlan:
            net::push_vlan(pkt, c.vlan_tci());
            break;
        case OdpAction::Type::PopVlan:
            net::pop_vlan(pkt);
            break;
        case OdpAction::Type::SetField: {
            net::FlowKey value;
            net::FlowMask mask;
            c.set_field(&value, &mask);
            net::apply_rewrite(pkt, value, mask);
            ctx.charge(costs.kdp_base / 4);
            break;
        }
        case OdpAction::Type::SetTunnel:
            pkt.meta().tunnel = c.tunnel();
            break;
        case OdpAction::Type::Ct: {
            obs::PerfStageScope ct_scope(perf, obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            const CtSpec spec = c.ct();
            kernel_.conntrack().process(pkt, key, spec, ctx, now_);
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns, "",
                           spec.zone, pkt.meta().ct_state);
            }
            break;
        }
        case OdpAction::Type::Recirc:
            pkt.meta().recirc_id = c.recirc_id();
            ctx.charge(costs.kdp_base / 2); // recirculation re-entry
            pkt.meta().latency_ns += costs.kdp_base / 2;
            process(std::move(pkt), ctx);
            return;
        case OdpAction::Type::Meter:
            // Token-bucket policing, same semantics as the userspace
            // datapath (kern/meter.h).
            if (!meters_.admit(c.meter_id(), pkt.size(), now_)) {
                OVSX_COVERAGE_CTX(ctx, "meter.drop");
                if (pkt.meta().trace_id) {
                    obs::trace(pkt.meta().trace_id, obs::Hop::Meter, pkt.meta().latency_ns,
                               "drop", c.meter_id());
                }
                return;
            }
            break;
        case OdpAction::Type::Userspace:
            // An action upcall (Linux's output_userspace): ovs-vswitchd
            // takes the packet and does not execute it again.
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Action, pkt.meta().latency_ns,
                           "userspace-punt");
            }
            punted_.push_back(std::move(pkt));
            return;
        case OdpAction::Type::Drop:
        // OpenFlow-only kinds, which ofproto translates away: no
        // datapath list holds one.
        case OdpAction::Type::GotoTable:
        case OdpAction::Type::CtResume:
        case OdpAction::Type::Controller:
            return;
        }
    }
}

} // namespace ovsx::kern

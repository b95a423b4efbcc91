#include "kern/ovs_kmod.h"

#include <algorithm>

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

OvsKernelDatapath::OvsKernelDatapath(Kernel& kernel)
    : kernel_(kernel), san_scope_(san::new_scope())
{
}

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
    san::audit_clear(san_scope_, "kdp.flow");
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
    FlowRef flow = std::make_shared<const Flow>(Flow{mask.apply(key), std::move(actions)});
    const std::uint64_t h = flow->key.hash();
    const auto same = [&](const FlowRef& f) { return f->key == flow->key; };
    auto sub = std::find_if(subtables_.begin(), subtables_.end(),
                            [&](const Subtable& s) { return s.mask == mask; });
    if (sub != subtables_.end()) {
        if (FlowRef* old = sub->flows.find(h, same)) {
            *old = std::move(flow); // a running lookup keeps the old one alive
            return;
        }
        sub->flows.insert(h, flow);
    } else {
        subtables_.emplace_back(mask).flows.insert(h, flow);
        // Keep the most specific masks first so probe order favours them.
        std::sort(subtables_.begin(), subtables_.end(), [](const Subtable& a, const Subtable& b) {
            return a.mask.exact_bytes() > b.mask.exact_bytes();
        });
    }
    if (san::hardened()) {
        san::audit_add(san_scope_, "kdp.flow", net::flow_audit_key(flow->key, mask), OVSX_SITE);
    }
}

bool OvsKernelDatapath::flow_del(const net::FlowKey& key, const net::FlowMask& mask)
{
    const net::FlowKey masked = mask.apply(key);
    for (auto& sub : subtables_) {
        if (!(sub.mask == mask)) continue;
        if (!sub.flows.erase(masked.hash(), [&](const FlowRef& f) { return f->key == masked; })) {
            return false;
        }
        if (san::hardened()) {
            san::audit_remove(san_scope_, "kdp.flow", net::flow_audit_key(masked, mask),
                              OVSX_SITE);
        }
        return true;
    }
    return false;
}

void OvsKernelDatapath::flow_flush()
{
    subtables_.clear();
    san::audit_clear(san_scope_, "kdp.flow");
}

std::size_t OvsKernelDatapath::flow_count() const
{
    std::size_t n = 0;
    for (const auto& sub : subtables_) n += sub.flows.size();
    return n;
}

std::vector<OdpFlowEntry> OvsKernelDatapath::flow_dump() const
{
    std::vector<OdpFlowEntry> out;
    for_each_entry([&](const net::FlowKey& k, const net::FlowMask& m, const OdpActions& a) {
        out.push_back(OdpFlowEntry{k, m, a});
    });
    return out;
}

void OvsKernelDatapath::san_check(san::Site site) const
{
    san::audit_expect_size(san_scope_, "kdp.flow", flow_count(), site);
}

OvsKernelDatapath::LookupResult OvsKernelDatapath::lookup(const net::FlowKey& key,
                                                          sim::ExecContext& ctx)
{
    LookupResult res;
    for (const auto& sub : subtables_) {
        ++res.probes;
        ctx.charge(kernel_.costs().kdp_flow_probe);
        if (const FlowRef* flow = sub.flows.find(sub.plan.hash(key), [&](const FlowRef& f) {
                return sub.plan.matches(key, f->key);
            })) {
            res.flow = *flow;
            return res;
        }
    }
    return res;
}

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
    const std::uint64_t classified_before = hits_ + misses_;
    if (iterate) perf->begin_iteration();
    san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
    {
        obs::PerfStageScope rx(perf, obs::PerfStage::RxPoll);
        ctx.charge(costs.kdp_base);
    }
    pkt.meta().latency_ns += costs.kdp_base;
    pkt.meta().in_port = port_no;
    process(std::move(pkt), ctx);
    if (iterate) perf->end_iteration(hits_ + misses_ - classified_before);
}

void OvsKernelDatapath::process(net::Packet&& pkt, sim::ExecContext& ctx)
{
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    const net::FlowKey key = net::parse_flow(pkt);
    LookupResult res;
    {
        obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
        res = lookup(key, ctx);
    }
    pkt.meta().latency_ns += static_cast<sim::Nanos>(res.probes) * costs.kdp_flow_probe;
    if (res.flow) {
        ++hits_;
        OVSX_COVERAGE_CTX(ctx, "kdp.hit");
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::KernelFlow, pkt.meta().latency_ns,
                       "hit", res.probes);
        }
        // The owning reference keeps the actions alive even if execution
        // re-enters flow_put and replaces the flow or grows its table.
        execute(std::move(pkt), res.flow->actions, ctx);
        return;
    }
    ++misses_;
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

    for (std::size_t i = 0; i < actions.size(); ++i) {
        const OdpAction& act = actions[i];
        switch (act.type) {
        case OdpAction::Type::Output: {
            const bool last = (i + 1 == actions.size());
            if (last) {
                do_output(std::move(pkt), act.port, ctx);
                return;
            }
            net::Packet clone = pkt; // multicast/mirror copy
            ctx.charge(costs.copy(static_cast<std::int64_t>(pkt.size())));
            do_output(std::move(clone), act.port, ctx);
            break;
        }
        case OdpAction::Type::PushVlan:
            net::push_vlan(pkt, act.vlan_tci);
            break;
        case OdpAction::Type::PopVlan:
            net::pop_vlan(pkt);
            break;
        case OdpAction::Type::SetField:
            net::apply_rewrite(pkt, act.set_value, act.set_mask);
            ctx.charge(costs.kdp_base / 4);
            break;
        case OdpAction::Type::SetTunnel:
            pkt.meta().tunnel = act.tunnel;
            break;
        case OdpAction::Type::Ct: {
            obs::PerfStageScope ct_scope(perf, obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            kernel_.conntrack().process(pkt, key, act.ct, ctx, now_);
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns, "",
                           act.ct.zone, pkt.meta().ct_state);
            }
            break;
        }
        case OdpAction::Type::Recirc:
            pkt.meta().recirc_id = act.recirc_id;
            ctx.charge(costs.kdp_base / 2); // recirculation re-entry
            pkt.meta().latency_ns += costs.kdp_base / 2;
            process(std::move(pkt), ctx);
            return;
        case OdpAction::Type::Meter:
            // Token-bucket policing, same semantics as the userspace
            // datapath (kern/meter.h).
            if (!meters_.admit(act.meter_id, pkt.size(), now_)) return;
            break;
        case OdpAction::Type::Userspace:
            if (upcall_) {
                const net::FlowKey key = net::parse_flow(pkt);
                upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
            }
            return;
        case OdpAction::Type::Drop:
            return;
        }
    }
}

} // namespace ovsx::kern

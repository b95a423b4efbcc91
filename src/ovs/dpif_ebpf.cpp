#include "ovs/dpif_ebpf.h"

#include <cstring>
#include <stdexcept>

#include "ebpf/programs.h"
#include "kern/kernel.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/rewrite.h"
#include "kern/nic.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "san/audit.h"
#include "san/packet_ledger.h"

namespace ovsx::ovs {

using namespace ebpf;

namespace {

// Audit identity of an eBPF map entry: FNV-1a over the raw key bytes
// (EbpfKey is packed, so every byte is defined). Computed only under
// san::hardened().
std::uint64_t map_audit_key(const void* key, std::size_t len)
{
    const auto* p = static_cast<const std::uint8_t*>(key);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

// Builds the TC-hook datapath program: parse -> exact key -> map lookup.
// Returns 3 on hit (flow id deposited in result_map[0]) and 2 on miss.
// Handles untagged and single-802.1Q-tagged IPv4; the key carries the
// TCI (with the "present" bit, OVS convention) and the IP ToS, so VLAN
// and DSCP rules are now expressible — still strictly exact-match.
Program build_tc_program(MapPtr flow_map, MapPtr result_map)
{
    ProgramBuilder b("ovs_ebpf_datapath");
    const int flow_fd = b.add_map(std::move(flow_map));
    const int result_fd = b.add_map(std::move(result_map));

    b.mov_reg(R6, R1)
        .ldxdw(R2, R6, 0)
        .ldxdw(R3, R6, 8)
        .mov_reg(R4, R2)
        .add_imm(R4, kOffL4 + 8)
        .jgt_reg(R4, R3, "miss");

    // Zero the 20-byte key slot [-24, -4).
    b.stdw(R10, -24, 0).stdw(R10, -16, 0).stw(R10, -8, 0);
    // in_port from ctx->ingress_ifindex.
    b.ldxdw(R5, R6, 16).stxw(R10, -24, R5);

    b.ldxh(R5, R2, kOffEthType);
    b.jeq_imm(R5, kEthVlanLE, "vlan");
    b.jne_imm(R5, kEthIpv4LE, "miss");

    // ---- untagged IPv4 ----
    b.ldxb(R5, R2, kOffIp).rsh_imm(R5, 4).jne_imm(R5, 4, "miss");
    // IHL must be exactly 5: the key loads ports at the fixed kOffL4
    // offset, so an options-bearing header would alias option bytes into
    // the port fields and hit the wrong flow. Send those to the slow path.
    b.ldxb(R5, R2, kOffIp).and_imm(R5, 0x0f).jne_imm(R5, 5, "miss");
    // Fragments must not key on kOffL4: a later fragment carries payload
    // bytes where the ports live, which would alias another flow's map
    // entry while the installed key has tp=0. Punt anything with MF or a
    // nonzero offset (frag_off & 0x3fff after byte swap) to the slow path.
    b.ldxh(R5, R2, kOffIp + 6).be16(R5).and_imm(R5, 0x3fff).jne_imm(R5, 0, "miss");
    b.ldxw(R5, R2, kOffIpSrc).stxw(R10, -20, R5);
    b.ldxw(R5, R2, kOffIpDst).stxw(R10, -16, R5);
    b.ldxw(R5, R2, kOffL4).stxw(R10, -12, R5); // sport|dport as on the wire
    b.ldxb(R5, R2, kOffIpProto).stxb(R10, -8, R5);
    b.ldxb(R5, R2, kOffIp + 1).stxb(R10, -7, R5); // ToS
    b.ja("lookup");

    // ---- 802.1Q-tagged IPv4 ----
    b.label("vlan");
    b.mov_reg(R4, R2).add_imm(R4, kOffL4Tagged + 8).jgt_reg(R4, R3, "miss");
    b.ldxh(R5, R2, kOffEthTypeTagged).jne_imm(R5, kEthIpv4LE, "miss");
    b.ldxb(R5, R2, kOffIpTagged).rsh_imm(R5, 4).jne_imm(R5, 4, "miss");
    b.ldxb(R5, R2, kOffIpTagged).and_imm(R5, 0x0f).jne_imm(R5, 5, "miss");
    b.ldxh(R5, R2, kOffIpTagged + 6).be16(R5).and_imm(R5, 0x3fff).jne_imm(R5, 0, "miss");
    b.ldxw(R5, R2, kOffIpTagged + 12).stxw(R10, -20, R5);
    b.ldxw(R5, R2, kOffIpTagged + 16).stxw(R10, -16, R5);
    b.ldxw(R5, R2, kOffL4Tagged).stxw(R10, -12, R5);
    b.ldxb(R5, R2, kOffIpTagged + 9).stxb(R10, -8, R5);
    b.ldxb(R5, R2, kOffIpTagged + 1).stxb(R10, -7, R5); // ToS
    // TCI as loaded little-endian from the wire; OR-ing 0x10 here sets
    // the same bit the byte-swapped host value 0x1000 ("VLAN present",
    // OVS convention) occupies, so the stored halfword bytes equal the
    // packed EbpfKey bytes of host_to_be16(tci | 0x1000).
    b.ldxh(R5, R2, kOffVlanTci).or_imm(R5, 0x10).stxh(R10, -6, R5);

    b.label("lookup");
    b.load_map_fd(R1, flow_fd).mov_reg(R2, R10).add_imm(R2, -24).call(HelperId::MapLookup);
    b.jeq_imm(R0, 0, "miss");
    b.ldxw(R7, R0, 0); // flow id

    // Deposit the hit into result_map[0].
    b.stw(R10, -32, 0);
    b.load_map_fd(R1, result_fd).mov_reg(R2, R10).add_imm(R2, -32).call(HelperId::MapLookup);
    b.jeq_imm(R0, 0, "miss");
    b.stxw(R0, 0, R7);
    b.mov_imm(R0, 3).exit(); // hit

    b.label("miss").mov_imm(R0, 2).exit();
    return b.build();
}

// Loads the TC program over `flow_map`, as the kernel would on attach:
// a program the verifier rejects never runs.
Image load_tc_program(MapPtr flow_map, MapPtr result_map)
{
    Image image = load(build_tc_program(std::move(flow_map), std::move(result_map)));
    if (!image.verified()) {
        throw std::runtime_error("dpif-ebpf: datapath program rejected: " +
                                 image.verdict().error);
    }
    return image;
}

} // namespace

DpifEbpf::DpifEbpf(kern::Kernel& kernel) : kernel_(kernel), san_scope_(san::new_scope())
{
    flow_map_ = std::make_shared<Map>(MapType::Hash, "ovs_flow_table", sizeof(EbpfKey), 4,
                                      1 << 18);
    result_map_ = std::make_shared<Map>(MapType::Array, "ovs_result", 4, 4, 1);
    prog_ = load_tc_program(flow_map_, result_map_);
}

void DpifEbpf::set_now(sim::Nanos now)
{
    now_ = now;
    // Same clock hook as the other providers: the host conntrack's
    // timer wheel ticks on the datapath clock, never a full-table scan.
    kernel_.conntrack().tick(now);
}

DpifEbpf::~DpifEbpf()
{
    for (const auto& [no, dev] : ports_) {
        san::ref_dec(0, "netdev.ref", dev->ifindex(), OVSX_SITE);
    }
    san::audit_clear(san_scope_, "ebpf.map");
    san::audit_clear(san_scope_, "ebpf.shadow");
}

std::uint32_t DpifEbpf::add_port(kern::Device& dev)
{
    const std::uint32_t port_no = next_port_no_++;
    ports_[port_no] = &dev;
    san::ref_inc(0, "netdev.ref", dev.ifindex(), OVSX_SITE);
    dev.set_rx_handler([this, port_no](kern::Device&, net::Packet&& pkt, sim::ExecContext& ctx) {
        receive(port_no, std::move(pkt), ctx);
    });
    return port_no;
}

net::FlowMask DpifEbpf::required_mask()
{
    net::FlowMask m;
    m.bits.in_port = 0xffffffff;
    m.bits.nw_src = 0xffffffff;
    m.bits.nw_dst = 0xffffffff;
    m.bits.nw_proto = 0xff;
    m.bits.nw_tos = 0xff;
    m.bits.tp_src = 0xffff;
    m.bits.tp_dst = 0xffff;
    m.bits.vlan_tci = 0xffff;
    return m;
}

void DpifEbpf::flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                        kern::OdpActions actions)
{
    if (!(mask == required_mask())) {
        // The structural limitation: no wildcarding, hence no megaflows.
        throw std::invalid_argument(
            "dpif-ebpf: only exact-match flows are expressible in the eBPF map");
    }
    EbpfKey ek;
    ek.in_port = key.in_port;
    ek.src = net::host_to_be32(key.nw_src);
    ek.dst = net::host_to_be32(key.nw_dst);
    ek.sport = net::host_to_be16(key.tp_src);
    ek.dport = net::host_to_be16(key.tp_dst);
    ek.proto = key.nw_proto;
    ek.tos = key.nw_tos;
    ek.vlan_tci_be = net::host_to_be16(key.vlan_tci);

    // Re-putting an existing key replaces the map entry; drop the old
    // action shadow so flows_ and the map stay 1:1.
    sync::LockGuard guard(flow_mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.dpif_ebpf.shadow", true);
    const auto old = flow_map_->lookup_kv<std::uint32_t>(ek);
    if (old && !test_skip_shadow_erase_) {
        flows_.erase(*old);
        san::audit_remove(san_scope_, "ebpf.shadow", *old, OVSX_SITE);
    }
    const std::uint32_t flow_id = next_flow_id_++;
    flows_[flow_id] = std::move(actions);
    san::audit_add(san_scope_, "ebpf.shadow", flow_id, OVSX_SITE);
    flow_map_->update({reinterpret_cast<const std::uint8_t*>(&ek), sizeof ek},
                      {reinterpret_cast<const std::uint8_t*>(&flow_id), sizeof flow_id});
    if (!old && san::hardened()) {
        san::audit_add(san_scope_, "ebpf.map", map_audit_key(&ek, sizeof ek), OVSX_SITE);
    }
}

void DpifEbpf::flow_flush()
{
    sync::LockGuard guard(flow_mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.dpif_ebpf.shadow", true);
    flows_.clear();
    flow_map_ = std::make_shared<Map>(MapType::Hash, "ovs_flow_table", sizeof(EbpfKey), 4,
                                      1 << 18);
    prog_ = load_tc_program(flow_map_, result_map_);
    san::audit_clear(san_scope_, "ebpf.map");
    san::audit_clear(san_scope_, "ebpf.shadow");
}

std::vector<kern::OdpFlowEntry> DpifEbpf::flow_dump() const
{
    std::vector<kern::OdpFlowEntry> out;
    sync::LockGuard guard(flow_mu_);
    OVSX_SAN_ACCESS_AT(this, "ovs.dpif_ebpf.shadow", false);
    const net::FlowMask mask = required_mask();
    for (const auto& [kbytes, vbytes] : flow_map_->snapshot()) {
        EbpfKey ek;
        std::memcpy(&ek, kbytes.data(), sizeof ek);
        std::uint32_t flow_id = 0;
        std::memcpy(&flow_id, vbytes.data(), sizeof flow_id);
        net::FlowKey key;
        key.in_port = ek.in_port;
        key.nw_src = net::be32_to_host(ek.src);
        key.nw_dst = net::be32_to_host(ek.dst);
        key.tp_src = net::be16_to_host(ek.sport);
        key.tp_dst = net::be16_to_host(ek.dport);
        key.nw_proto = ek.proto;
        key.nw_tos = ek.tos;
        key.vlan_tci = net::be16_to_host(ek.vlan_tci_be);
        auto it = flows_.find(flow_id);
        out.push_back(kern::OdpFlowEntry{
            key, mask, it == flows_.end() ? kern::OdpActions{} : it->second});
    }
    return out;
}

void DpifEbpf::san_check(san::Site site) const
{
    sync::LockGuard guard(flow_mu_);
    san::audit_expect_size(san_scope_, "ebpf.shadow", flows_.size(), site);
    san::audit_expect_size(san_scope_, "ebpf.map", flow_map_->size(), site);
    // The map and its userspace action shadow must stay 1:1 (PR 1's
    // shadow-leak bug breaks exactly this invariant).
    san::audit_expect_linked(san_scope_, "ebpf.map", "ebpf.shadow", site);
}

std::vector<kern::CtSnapshotEntry> DpifEbpf::ct_snapshot() const
{
    return kernel_.conntrack().snapshot();
}

std::vector<const obs::PmdPerf*> DpifEbpf::perfs() const
{
    std::vector<kern::Device*> devices;
    for (const auto& [no, dev] : ports_) devices.push_back(dev);
    return kern::softirq_perfs(devices);
}

void DpifEbpf::receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx)
{
    obs::PmdPerf* perf = ctx.perf();
    if (!perf || perf->in_iteration()) {
        receive_one(port_no, std::move(pkt), ctx);
        return;
    }
    // The iteration's packets are classifier passes, counted on the
    // per-context coverage counters (they need no lock, unlike the
    // flow_mu_-guarded hits_/misses_).
    static const obs::CounterId kHitId = obs::coverage_id("ebpf.hit");
    static const obs::CounterId kMissId = obs::coverage_id("ebpf.miss");
    const std::uint64_t classified_before = ctx.counter(kHitId) + ctx.counter(kMissId);
    perf->begin_iteration();
    receive_one(port_no, std::move(pkt), ctx);
    perf->end_iteration(ctx.counter(kHitId) + ctx.counter(kMissId) - classified_before);
}

void DpifEbpf::receive_one(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx)
{
    obs::PmdPerf* perf = ctx.perf();
    san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
    pkt.meta().in_port = port_no;
    // The sandboxed program parses, builds the key, and probes the hash
    // map — there is no separate megaflow tier, so the whole VM run is
    // the datapath's "emc-lookup" stage.
    obs::PerfStageScope lookup_scope(perf, obs::PerfStage::EmcLookup);
    auto res = kernel_.vm().run_xdp(prog_, pkt, port_no, 0);
    ctx.charge(res.cost + kernel_.costs().xdp_setup);
    pkt.meta().latency_ns += res.cost + kernel_.costs().xdp_setup;
    if (res.touched_packet) ctx.charge(kernel_.costs().cache_miss);
    // The production eBPF datapath prototype (Tu et al., "Building an
    // extensible Open vSwitch datapath") executes ~680 instructions per
    // packet for full parse + lookup + action dispatch; our condensed
    // program above runs fewer, so charge the difference to model the
    // real program's sandbox cost (Fig. 2's 10-20% penalty).
    constexpr std::uint64_t kDatapathEquivInsns = 410;
    if (res.insns < kDatapathEquivInsns) {
        const auto extra = static_cast<sim::Nanos>(
            static_cast<double>(kDatapathEquivInsns - res.insns) * kernel_.costs().ebpf_insn);
        ctx.charge(extra);
        pkt.meta().latency_ns += extra;
    }

    if (res.ret == 3) {
        const std::uint32_t slot = 0;
        const auto flow_id = result_map_->lookup_kv<std::uint32_t>(slot).value_or(0);
        // Resolve the shadow under flow_mu_, then execute unlocked:
        // output actions can re-enter receive() through a veth peer, so
        // holding the lock across execute() would self-deadlock. The
        // reference stays valid after unlock (map nodes are stable, even
        // across a rehash; see the flow_mu_ contract in the header).
        const kern::OdpActions* actions = nullptr;
        {
            sync::LockGuard guard(flow_mu_);
            OVSX_SAN_ACCESS_AT(this, "ovs.dpif_ebpf.shadow", true);
            auto it = flows_.find(flow_id);
            if (it != flows_.end()) {
                ++hits_;
                actions = &it->second;
            }
        }
        if (actions) {
            OVSX_COVERAGE_CTX(ctx, "ebpf.hit");
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::EbpfLookup, pkt.meta().latency_ns,
                           "hit", flow_id, res.insns);
            }
            // Action execution also runs as sandboxed bytecode in this
            // design: charge the equivalent instruction cost per action.
            const auto insn_cost = static_cast<sim::Nanos>(
                60.0 * kernel_.costs().ebpf_insn * static_cast<double>(actions->size()));
            ctx.charge(insn_cost);
            pkt.meta().latency_ns += insn_cost;
            execute(std::move(pkt), *actions, ctx);
            return;
        }
    }
    {
        sync::LockGuard guard(flow_mu_);
        OVSX_SAN_ACCESS_AT(this, "ovs.dpif_ebpf.shadow", true);
        ++misses_;
        if (!upcall_) ++lost_;
    }
    OVSX_COVERAGE_CTX(ctx, "ebpf.miss");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::EbpfLookup, pkt.meta().latency_ns, "miss",
                   0, res.insns);
        obs::trace(pkt.meta().trace_id, obs::Hop::Upcall, pkt.meta().latency_ns, "");
    }
    if (perf) perf->note_upcall();
    if (upcall_) {
        obs::PerfStageScope upcall_scope(perf, obs::PerfStage::Upcall);
        const net::FlowKey key = net::parse_flow(pkt);
        upcall_(port_no, std::move(pkt), key, ctx);
    }
}

void DpifEbpf::do_output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx)
{
    auto it = ports_.find(port_no);
    if (it == ports_.end()) {
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-such-port", port_no);
        }
        return;
    }
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Tx, pkt.meta().latency_ns, "", port_no);
    }
    // This datapath cannot rewrite packets in flight, so a Geneve frame
    // carrying an INT option transits byte-identical (no stamp, no
    // strip). Count it so the fabric can prove the forward-intact
    // obligation from exported coverage alone.
    if (net::int_find(pkt)) OVSX_COVERAGE_CTX(ctx, "int.forwarded");
    obs::PerfStageScope tx_scope(ctx.perf(), obs::PerfStage::Tx);
    it->second->transmit(std::move(pkt), ctx);
}

void DpifEbpf::execute(net::Packet&& pkt, const kern::OdpActions& actions,
                       sim::ExecContext& ctx)
{
    obs::PerfStageScope act_scope(ctx.perf(), obs::PerfStage::Actions);
    using Type = kern::OdpAction::Type;
    for (std::size_t i = 0; i < actions.size(); ++i) {
        const kern::OdpAction& act = actions[i];
        switch (act.type) {
        case Type::Output:
            if (i + 1 == actions.size()) {
                do_output(std::move(pkt), act.port, ctx);
                return;
            } else {
                net::Packet clone = pkt;
                ctx.charge(kernel_.costs().copy(static_cast<std::int64_t>(pkt.size())));
                do_output(std::move(clone), act.port, ctx);
            }
            break;
        case Type::PushVlan:
            net::push_vlan(pkt, act.vlan_tci);
            break;
        case Type::PopVlan:
            net::pop_vlan(pkt);
            break;
        case Type::SetField:
            net::apply_rewrite(pkt, act.set_value, act.set_mask);
            break;
        case Type::Ct: {
            // eBPF conntrack via maps — functional but charged at eBPF cost.
            obs::PerfStageScope ct_scope(ctx.perf(), obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            kernel_.conntrack().process(pkt, key, act.ct, ctx, now_);
            ctx.charge(static_cast<sim::Nanos>(120.0 * kernel_.costs().ebpf_insn));
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns, "",
                           act.ct.zone, pkt.meta().ct_state);
            }
            break;
        }
        case Type::Recirc:
        case Type::SetTunnel:
        case Type::Meter:
        case Type::Userspace:
            // Not expressible in this datapath — the flow key lives in an
            // eBPF map without recirc/ct dimensions, and the paper notes
            // the eBPF datapath "lacks some OVS datapath features".
            // Treated as drop.
            OVSX_COVERAGE_CTX(ctx, "ebpf.unsupported_action");
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                           "unsupported-action");
            }
            return;
        case Type::Drop:
            return;
        }
    }
}

} // namespace ovsx::ovs

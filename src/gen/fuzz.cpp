#include "gen/fuzz.h"

#include <cstring>

#include "net/builder.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/tunnel.h"
#include "san/packet_ledger.h"
#include "san/report.h"

namespace ovsx::gen {

namespace {

// Address pools. ICMP/ARP traffic lives in a different /24 from the
// TCP/UDP flow tuples so an ARP upcall (whose FlowKey carries the ARP
// opcode in nw_proto) can never install an eBPF map entry that an ICMP
// frame's 5-tuple would alias.
std::uint32_t flow_ip(std::uint64_t i) { return 0x0a000000u | (1 + (i % 8)); } // 10.0.0.x
std::uint32_t mgmt_ip(std::uint64_t i) { return 0x0a000100u | (1 + (i % 8)); } // 10.0.1.x
// NAT translations land in their own /24 so a translated tuple can never
// alias an untranslated flow tuple.
std::uint32_t nat_ip(std::uint64_t i) { return 0x0a000200u | (1 + (i % 8)); } // 10.0.2.x

constexpr std::uint16_t kPorts[] = {53, 80, 443, 1234, 5001, 8080};

net::MacAddr all_ones_mac()
{
    net::MacAddr m;
    std::memset(&m, 0xff, sizeof m);
    return m;
}

struct FlowTuple {
    std::uint32_t src = 0, dst = 0;
    std::uint16_t sport = 0, dport = 0;
    std::uint8_t proto = 17;
    int tcp_phase = 0; // 0 = next is SYN, 1 = next is ACK data
};

kern::OdpActions random_actions(sim::Rng& rng, const FuzzConfig& cfg,
                                std::vector<std::uint32_t>& recirc_ids,
                                DiffRuleset& ruleset)
{
    auto port = [&] { return static_cast<std::uint32_t>(1 + rng.below(cfg.n_ports)); };
    const std::uint64_t roll = rng.below(cfg.use_ct ? 12 : 10);
    switch (roll) {
    case 0:
    case 1:
    case 2: return {kern::OdpAction::output(port())};
    case 3: {
        const std::uint32_t a = port();
        const std::uint32_t b = 1 + (a % cfg.n_ports);
        return {kern::OdpAction::output(a), kern::OdpAction::output(b)};
    }
    case 4: { // decrement-style TTL rewrite
        net::FlowKey v;
        net::FlowMask m;
        v.nw_ttl = static_cast<std::uint8_t>(16 + rng.below(32));
        m.bits.nw_ttl = 0xff;
        return {kern::OdpAction::set_field(v, m), kern::OdpAction::output(port())};
    }
    case 5: { // route-style MAC rewrite
        net::FlowKey v;
        net::FlowMask m;
        v.dl_dst = net::MacAddr::from_id(200 + static_cast<std::uint32_t>(rng.below(4)));
        m.bits.dl_dst = all_ones_mac();
        return {kern::OdpAction::set_field(v, m), kern::OdpAction::output(port())};
    }
    case 6: { // NAT-style address rewrite
        net::FlowKey v;
        net::FlowMask m;
        v.nw_dst = flow_ip(rng.below(8));
        m.bits.nw_dst = 0xffffffff;
        v.tp_dst = kPorts[rng.below(std::size(kPorts))];
        m.bits.tp_dst = 0xffff;
        return {kern::OdpAction::set_field(v, m), kern::OdpAction::output(port())};
    }
    case 7:
        if (cfg.use_vlan) {
            const auto tci = static_cast<std::uint16_t>(100 + rng.below(16));
            return {kern::OdpAction::push_vlan(tci), kern::OdpAction::output(port())};
        }
        return {kern::OdpAction::output(port())};
    case 8:
        if (cfg.use_vlan) {
            return {kern::OdpAction::pop_vlan(), kern::OdpAction::output(port())};
        }
        return {kern::OdpAction::drop()};
    case 9:
        if (cfg.use_meters && !ruleset.meters.empty()) {
            const auto id = ruleset.meters[rng.below(ruleset.meters.size())].first;
            return {kern::OdpAction::meter(id), kern::OdpAction::output(port())};
        }
        return {kern::OdpAction::drop()};
    default: { // Ct (+SNAT/DNAT) + Recirc into a second-pass ct_state rule pair
        kern::CtSpec spec;
        spec.zone = static_cast<std::uint16_t>(rng.below(cfg.n_zones));
        spec.commit = true;
        if (cfg.use_nat) {
            switch (rng.below(4)) {
            case 1: // plain SNAT (address only)
                spec.nat = kern::NatSpec::src(nat_ip(rng.next()));
                break;
            case 2: // SNAT with a narrow port range, to force allocation
                spec.nat = kern::NatSpec::src(nat_ip(rng.next()), 40000, 40007);
                break;
            case 3: // DNAT onto a backend port
                spec.nat = kern::NatSpec::dst(nat_ip(rng.next()),
                                              kPorts[rng.below(std::size(kPorts))]);
                break;
            default: break; // un-NATed ct keeps its coverage too
            }
        }
        const std::uint32_t rid = 0x100 + static_cast<std::uint32_t>(recirc_ids.size());
        recirc_ids.push_back(rid);
        return {kern::OdpAction::conntrack(spec), kern::OdpAction::recirc(rid)};
    }
    }
}

} // namespace

DiffRuleset generate_ruleset(sim::Rng& rng, const FuzzConfig& cfg)
{
    DiffRuleset rs;
    if (cfg.use_meters) {
        kern::MeterConfig mc;
        mc.rate_pps = 1000;
        mc.burst = 64;
        rs.meters.emplace_back(1, mc);
    }

    std::vector<std::uint32_t> recirc_ids;
    for (std::size_t i = 0; i < cfg.n_rules; ++i) {
        DiffRule r;
        r.priority = 100 - static_cast<int>(i);
        // First pass: only packets that have not been recirculated.
        r.mask.bits.recirc_id = 0xffffffff;

        if (rng.below(2) == 0) {
            r.mask.bits.in_port = 0xffffffff;
            r.match.in_port = static_cast<std::uint32_t>(1 + rng.below(cfg.n_ports));
        }
        if (rng.below(2) == 0) {
            r.mask.bits.nw_src = 0xffffffff;
            r.match.nw_src = flow_ip(rng.next());
        }
        if (rng.below(2) == 0) {
            r.mask.bits.nw_dst = 0xffffffff;
            r.match.nw_dst = flow_ip(rng.next());
        }
        if (rng.below(3) == 0) {
            r.mask.bits.nw_proto = 0xff;
            r.match.nw_proto = rng.below(2) == 0 ? 6 : 17;
        }
        if (rng.below(3) == 0) {
            r.mask.bits.tp_dst = 0xffff;
            r.match.tp_dst = kPorts[rng.below(std::size(kPorts))];
        }
        // A sprinkle of rules on dimensions the eBPF key cannot express —
        // these produce *explained* divergences, never unexplained ones.
        if (cfg.use_vlan && rng.below(6) == 0) {
            r.mask.bits.vlan_tci = 0xffff;
            r.match.vlan_tci = static_cast<std::uint16_t>(0x1000 | (100 + rng.below(16)));
        }

        r.actions = random_actions(rng, cfg, recirc_ids, rs);
        rs.rules.push_back(std::move(r));
    }

    // Second pass: ct_state dispatch for every recirculation target.
    for (const std::uint32_t rid : recirc_ids) {
        const auto out_new = static_cast<std::uint32_t>(1 + rng.below(cfg.n_ports));
        const auto out_est = static_cast<std::uint32_t>(1 + rng.below(cfg.n_ports));

        DiffRule rn;
        rn.priority = 20;
        rn.mask.bits.recirc_id = 0xffffffff;
        rn.match.recirc_id = rid;
        rn.mask.bits.ct_state = net::kCtStateNew;
        rn.match.ct_state = net::kCtStateNew;
        rn.actions = {kern::OdpAction::output(out_new)};
        rs.rules.push_back(std::move(rn));

        DiffRule re;
        re.priority = 20;
        re.mask.bits.recirc_id = 0xffffffff;
        re.match.recirc_id = rid;
        re.mask.bits.ct_state = net::kCtStateEstablished;
        re.match.ct_state = net::kCtStateEstablished;
        re.actions = {kern::OdpAction::output(out_est)};
        rs.rules.push_back(std::move(re));

        // Invalid/related traffic falls through to an explicit drop.
        DiffRule rf;
        rf.priority = 10;
        rf.mask.bits.recirc_id = 0xffffffff;
        rf.match.recirc_id = rid;
        rf.actions = {kern::OdpAction::drop()};
        rs.rules.push_back(std::move(rf));
    }

    // Default: forward somewhere so most of the stream exercises the fast
    // path instead of dying on a table miss.
    DiffRule def;
    def.priority = 1;
    def.mask.bits.recirc_id = 0xffffffff;
    def.actions = {kern::OdpAction::output(static_cast<std::uint32_t>(1 + rng.below(cfg.n_ports)))};
    rs.rules.push_back(std::move(def));
    return rs;
}

std::vector<DiffPacket> generate_packets(sim::Rng& rng, const FuzzConfig& cfg,
                                         std::size_t count)
{
    std::vector<FlowTuple> flows(cfg.n_flows);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        flows[i].src = flow_ip(rng.next());
        flows[i].dst = flow_ip(rng.next());
        flows[i].sport = static_cast<std::uint16_t>(10000 + rng.below(1000));
        flows[i].dport = kPorts[rng.below(std::size(kPorts))];
        flows[i].proto = rng.below(3) == 0 ? 6 : 17;
    }

    std::vector<DiffPacket> out;
    out.reserve(count);
    net::Packet last_plain; // most recent well-formed UDP/TCP frame, for ICMP errors

    for (std::size_t step = 0; step < count; ++step) {
        DiffPacket dp;
        dp.port = rng.below(cfg.n_ports);
        const auto src_mac = net::MacAddr::from_id(10 + static_cast<std::uint32_t>(dp.port));
        const auto dst_mac = net::MacAddr::from_id(20 + static_cast<std::uint32_t>(rng.below(4)));
        FlowTuple& f = flows[rng.below(flows.size())];

        const std::uint64_t roll = rng.below(100);
        if (cfg.use_malformed && roll < cfg.malformed_percent) {
            net::UdpSpec s;
            s.src_mac = src_mac;
            s.dst_mac = dst_mac;
            s.src_ip = f.src;
            s.dst_ip = f.dst;
            s.src_port = f.sport;
            s.dst_port = f.dport;
            net::Packet pkt = net::build_udp(s);
            const auto corpus = net::all_malformations();
            net::malform(pkt, corpus[rng.below(corpus.size())]);
            dp.pkt = std::move(pkt);
        } else if (roll < 45 || (roll < 70 && f.proto == 17)) {
            net::UdpSpec s;
            s.src_mac = src_mac;
            s.dst_mac = dst_mac;
            s.src_ip = f.src;
            s.dst_ip = f.dst;
            s.src_port = f.sport;
            s.dst_port = f.dport;
            if (cfg.use_vlan && rng.below(8) == 0) {
                s.vlan_tci = static_cast<std::uint16_t>(0x1000 | (100 + rng.below(16)));
            }
            dp.pkt = net::build_udp(s);
            if (s.vlan_tci == 0) last_plain = dp.pkt;
            if (cfg.use_fragments && rng.below(6) == 0) {
                // First fragment (offset 0, MF set) or a later one whose
                // "port" bytes are really payload — the aliasing case the
                // datapaths must agree to slow-path.
                const bool first = rng.below(2) == 0;
                const auto off =
                    first ? std::uint16_t{0} : static_cast<std::uint16_t>(3 + rng.below(16));
                net::Packet frag = net::as_fragment(dp.pkt, off, first);
                if (frag.size() > 0) dp.pkt = std::move(frag);
            }
        } else if (roll < 70) {
            net::TcpSpec s;
            s.src_mac = src_mac;
            s.dst_mac = dst_mac;
            s.src_ip = f.src;
            s.dst_ip = f.dst;
            s.src_port = f.sport;
            s.dst_port = f.dport;
            if (f.tcp_phase == 0) {
                s.flags = net::kTcpSyn;
                f.tcp_phase = 1;
            } else if (rng.below(10) == 0) {
                s.flags = net::kTcpRst | net::kTcpAck;
                f.tcp_phase = 0; // next packet on this tuple restarts the handshake
            } else {
                s.flags = net::kTcpAck;
                s.payload_len = 16;
            }
            s.seq = static_cast<std::uint32_t>(step);
            dp.pkt = net::build_tcp(s);
            last_plain = dp.pkt;
        } else if (cfg.use_geneve && roll < 80) {
            net::UdpSpec inner;
            inner.src_mac = net::MacAddr::from_id(50);
            inner.dst_mac = net::MacAddr::from_id(51);
            inner.src_ip = 0xc0a80001 + static_cast<std::uint32_t>(rng.below(4));
            inner.dst_ip = 0xc0a80101;
            inner.src_port = 2000;
            inner.dst_port = 3000;
            net::Packet pkt = net::build_udp(inner);
            net::TunnelKey key;
            key.tun_id = 1 + rng.below(4);
            key.ip_src = mgmt_ip(rng.next());
            key.ip_dst = mgmt_ip(rng.next());
            net::EncapParams params;
            params.outer_src_mac = src_mac;
            params.outer_dst_mac = dst_mac;
            params.udp_src_port = static_cast<std::uint16_t>(20000 + rng.below(100));
            net::TunnelType type = net::TunnelType::Geneve;
            if (cfg.use_extra_encaps) {
                const std::uint64_t t = rng.below(3);
                type = t == 0   ? net::TunnelType::Geneve
                       : t == 1 ? net::TunnelType::Vxlan
                                : net::TunnelType::Erspan;
            }
            net::encapsulate(pkt, type, key, params);
            if (cfg.use_int && type == net::TunnelType::Geneve) {
                // Pre-stamped origin record, as a fabric host would emit:
                // the providers under test then stamp (netdev/kernel) or
                // forward intact (eBPF); verdicts are INT-stripped.
                net::int_attach(pkt, 8);
                net::IntHop origin;
                origin.switch_id = 0xf0;
                origin.ingress_tier = net::kIntTierHost;
                origin.egress_tier = net::kIntTierHost;
                origin.occupancy = 1;
                origin.latency_ticks = static_cast<std::uint32_t>(rng.below(64));
                net::int_stamp(pkt, origin);
            }
            dp.pkt = std::move(pkt);
        } else if (cfg.use_icmp && roll < 88) {
            net::IcmpSpec s;
            s.src_mac = src_mac;
            s.dst_mac = dst_mac;
            s.src_ip = mgmt_ip(rng.next());
            s.dst_ip = mgmt_ip(rng.next());
            s.rest = static_cast<std::uint32_t>(step);
            dp.pkt = net::build_icmp(s);
        } else if (cfg.use_icmp && roll < 94 && last_plain.size() > 0) {
            // Destination-unreachable citing the last forwarded flow: the
            // conntracks must agree on RELATED vs INVALID.
            net::IcmpSpec s;
            s.src_mac = src_mac;
            s.dst_mac = dst_mac;
            s.src_ip = mgmt_ip(rng.next());
            s.dst_ip = f.src;
            s.type = 3;
            s.code = 3;
            dp.pkt = net::build_icmp_error(s, last_plain);
        } else {
            dp.pkt = net::build_arp(true, src_mac, mgmt_ip(rng.next()), dst_mac,
                                    mgmt_ip(rng.next()));
        }
        out.push_back(std::move(dp));
    }
    return out;
}

DiffReport fuzz_run(std::uint64_t seed, const FuzzConfig& cfg, std::size_t count)
{
    sim::Rng rng(seed);
    DiffRuleset ruleset = generate_ruleset(rng, cfg);
    std::vector<DiffPacket> packets = generate_packets(rng, cfg, count);

    DiffOptions opts;
    opts.n_ports = cfg.n_ports;
    opts.num_queues = cfg.num_queues ? cfg.num_queues : 1;
    opts.seed = seed;
    opts.enable_int = cfg.use_int;
    opts.ct_shards = cfg.shards ? cfg.shards : 1;
    opts.mf_shards = cfg.shards ? cfg.shards : 1;
    DifferentialHarness harness(std::move(ruleset), opts);

    // Every fuzz iteration doubles as a sanitizer run: hardened mode is
    // forced on so the skb ledger, checked packet accessors and table
    // audits all fire; violations are collected (not aborted on) and
    // folded into the report as unexplained divergences.
    san::ScopedHardened hardened;
    san::ScopedCollect collect;
    const std::uint64_t first_id = san::skb_next_id();
    DiffReport report = harness.run(packets);
    if (cfg.batch_size > 0) {
        DiffReport bt = harness.run_burst_twins(packets, DpKind::Netdev, cfg.batch_size);
        for (auto& d : bt.unexplained) {
            d.detail = "burst-twins[netdev,b=" + std::to_string(cfg.batch_size) +
                       "]: " + d.detail;
            report.unexplained.push_back(std::move(d));
        }
    }
    san::skb_leak_check_since(first_id, OVSX_SITE);
    for (const auto& v : collect.take()) {
        report.unexplained.push_back({packets.size(), "san: " + v.to_string(), ""});
    }
    return report;
}

} // namespace ovsx::gen

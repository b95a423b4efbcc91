#include "nsx/nsx.h"

#include <set>

#include "net/headers.h"

namespace ovsx::nsx {

using ovs::Match;
using ovs::OfAction;
using ovs::OfRule;

namespace {

Match match_all() { return Match{}; }

Match match_in_port(std::uint32_t port)
{
    Match m;
    m.key.in_port = port;
    m.mask.bits.in_port = 0xffffffff;
    return m;
}

Match match_tun_id(std::uint64_t vni)
{
    Match m;
    m.key.tun_id = vni;
    m.mask.bits.tun_id = ~std::uint64_t{0};
    return m;
}

Match match_ct_state(std::uint8_t value, std::uint8_t mask)
{
    Match m;
    m.key.ct_state = value;
    m.mask.bits.ct_state = mask;
    return m;
}

} // namespace

NsxAgent::NsxAgent(ovs::VSwitch& vswitch, NsxConfig config)
    : vswitch_(vswitch), config_(std::move(config)), rng_(config_.seed)
{
}

void NsxAgent::deploy()
{
    vswitch_.ofproto().clear();
    rng_ = sim::Rng(config_.seed);

    install_classification();
    install_service_chain();
    install_ls_demux();
    install_dfw();
    install_field_coverage();
    install_egress();

    // Fill the remaining budget with DFW ACL bulk, like a production
    // distributed-firewall dump.
    const std::size_t current = vswitch_.ofproto().rule_count();
    if (config_.target_rules > current) {
        install_acl_bulk(config_.target_rules - current);
    }
}

void NsxAgent::install_classification()
{
    auto& of = vswitch_.ofproto();
    std::set<std::uint32_t> local_ports;
    for (const auto& vm : config_.vms) {
        if (vm.of_port != 0) local_ports.insert(vm.of_port);
    }
    for (const std::uint32_t port : local_ports) {
        of.add_rule({.table = table::kClassify, .priority = 100, .match = match_in_port(port),
                     .actions = {OfAction::goto_table(table::kServiceChainFirst)}});
    }
    of.add_rule({.table = table::kClassify, .priority = 100,
                 .match = match_in_port(config_.tunnel_of_port),
                 .actions = {OfAction::goto_table(table::kServiceChainFirst)}});
    // Unknown ingress drops.
    of.add_rule({.table = table::kClassify, .priority = 0, .match = match_all(),
                 .actions = {OfAction::drop()}});
}

void NsxAgent::install_service_chain()
{
    // Tables 1..8: the service-insertion chain present in production
    // dumps (DPI/mirror hooks). Each hop has a decorative classifier
    // rule plus the passthrough.
    auto& of = vswitch_.ofproto();
    for (int hop = 0; hop < table::kServiceHops; ++hop) {
        const auto t = static_cast<std::uint8_t>(table::kServiceChainFirst + hop);
        const std::uint8_t next = (hop + 1 < table::kServiceHops)
                                      ? static_cast<std::uint8_t>(t + 1)
                                      : table::kLsDemux;
        Match ip6;
        ip6.key.dl_type = 0x86dd;
        ip6.mask.bits.dl_type = 0xffff;
        of.add_rule({.table = t, .priority = 50, .match = ip6,
                     .actions = {OfAction::goto_table(next)}});
        of.add_rule({.table = t, .priority = 1, .match = match_all(),
                     .actions = {OfAction::goto_table(next)}});
    }
}

void NsxAgent::install_ls_demux()
{
    auto& of = vswitch_.ofproto();
    // Per-VTEP ingress rules (BFD/health scoping in real dumps): match
    // traffic from each known remote VTEP.
    for (const std::uint32_t vtep : config_.remote_vteps) {
        Match m;
        m.key.in_port = config_.tunnel_of_port;
        m.mask.bits.in_port = 0xffffffff;
        m.key.tun_src = vtep;
        m.mask.bits.tun_src = 0xffffffff;
        of.add_rule({.table = table::kLsDemux, .priority = 100, .match = m,
                     .actions = {OfAction::goto_table(table::kDfwPre)}});
    }
    // Local VM interfaces.
    for (const auto& vm : config_.vms) {
        if (vm.of_port == 0) continue;
        of.add_rule({.table = table::kLsDemux, .priority = 90, .match = match_in_port(vm.of_port),
                     .actions = {OfAction::goto_table(table::kDfwPre)}});
    }
    // Tunnel traffic from unknown VTEPs still demuxes by VNI.
    std::set<std::uint32_t> vnis;
    for (const auto& vm : config_.vms) vnis.insert(vm.vni);
    for (const std::uint32_t vni : vnis) {
        of.add_rule({.table = table::kLsDemux, .priority = 50, .match = match_tun_id(vni),
                     .actions = {OfAction::goto_table(table::kDfwPre)}});
    }
    of.add_rule({.table = table::kLsDemux, .priority = 0, .match = match_all(),
                 .actions = {OfAction::drop()}});
}

void NsxAgent::install_dfw()
{
    auto& of = vswitch_.ofproto();
    std::set<std::uint32_t> vnis;
    for (const auto& vm : config_.vms) vnis.insert(vm.vni);

    // ---- kDfwPre: send the packet through conntrack in its zone -------
    for (const std::uint32_t vni : vnis) {
        kern::CtSpec ct;
        ct.zone = zone_for_vni(vni);
        Match m = match_tun_id(vni);
        of.add_rule({.table = table::kDfwPre, .priority = 100, .match = m,
                     .actions = {OfAction::conntrack(ct, table::kDfwAcl)}});
    }
    for (const auto& vm : config_.vms) {
        if (vm.of_port == 0) continue;
        kern::CtSpec ct;
        ct.zone = zone_for_vni(vm.vni);
        of.add_rule({.table = table::kDfwPre, .priority = 90,
                     .match = match_in_port(vm.of_port),
                     .actions = {OfAction::conntrack(ct, table::kDfwAcl)}});
    }
    of.add_rule({.table = table::kDfwPre, .priority = 0, .match = match_all(),
                 .actions = {OfAction::drop()}});

    // ---- kDfwAcl: established fast path + allow/new rules ---------------
    of.add_rule({.table = table::kDfwAcl, .priority = 16000,
                 .match = match_ct_state(net::kCtStateTracked | net::kCtStateEstablished,
                                         net::kCtStateTracked | net::kCtStateEstablished |
                                             net::kCtStateInvalid),
                 .actions = {OfAction::goto_table(table::kEgress)}});
    // Invalid always drops.
    of.add_rule({.table = table::kDfwAcl, .priority = 15999,
                 .match = match_ct_state(net::kCtStateTracked | net::kCtStateInvalid,
                                         net::kCtStateTracked | net::kCtStateInvalid),
                 .actions = {OfAction::drop()}});
    // Allow intra-segment traffic (the benchmark flows): new connections
    // from known prefixes commit *in their own zone* (matched via
    // ct_zone, set by the kDfwPre pass) and proceed to egress.
    for (const std::uint32_t vni : vnis) {
        for (const std::uint32_t src_net : {net::ipv4(10, 0, 0, 0), net::ipv4(48, 0, 0, 0),
                                            net::ipv4(16, 0, 0, 0), net::ipv4(192, 168, 0, 0)}) {
            Match m = match_ct_state(net::kCtStateTracked | net::kCtStateNew,
                                     net::kCtStateTracked | net::kCtStateNew);
            m.key.nw_src = src_net;
            m.mask.bits.nw_src = 0xff000000;
            m.key.ct_zone = zone_for_vni(vni);
            m.mask.bits.ct_zone = 0xffff;
            kern::CtSpec commit;
            commit.zone = zone_for_vni(vni);
            commit.commit = true;
            of.add_rule({.table = table::kDfwAcl, .priority = 12000, .match = m,
                         .actions = {OfAction::conntrack(commit, table::kEgress)}});
        }
    }
    // ACL sections chain; a packet not decided in kDfwAcl consults the
    // overflow sections before the final default drop.
    for (int s = 0; s < table::kAclSections; ++s) {
        const auto t = static_cast<std::uint8_t>(table::kAclOverflowFirst + s);
        const std::uint8_t prev = (s == 0) ? table::kDfwAcl
                                           : static_cast<std::uint8_t>(t - 1);
        of.add_rule({.table = prev, .priority = 1, .match = match_all(),
                     .actions = {OfAction::goto_table(t)}});
        if (s == table::kAclSections - 1) {
            of.add_rule({.table = t, .priority = 0, .match = match_all(),
                         .actions = {OfAction::drop()}});
        }
    }
}

std::size_t NsxAgent::install_acl_bulk(std::size_t count)
{
    // Production DFW dumps are dominated by 5-tuple ACLs in a handful of
    // mask shapes. These are classifier pressure: none match the
    // benchmark flows (src prefixes outside the allowed ranges).
    auto& of = vswitch_.ofproto();
    std::size_t installed = 0;
    while (installed < count) {
        const int shape = static_cast<int>(rng_.below(6));
        Match m = match_ct_state(net::kCtStateTracked | net::kCtStateNew,
                                 net::kCtStateTracked | net::kCtStateNew);
        const std::uint32_t a = 0x60000000 | rng_.u32() % 0x10000000; // 96.x..111.x
        const std::uint32_t b = 0x70000000 | rng_.u32() % 0x10000000;
        switch (shape) {
        case 0:
            m.key.nw_src = a;
            m.mask.bits.nw_src = 0xffffffff;
            m.key.nw_dst = b;
            m.mask.bits.nw_dst = 0xffffffff;
            m.key.tp_dst = rng_.u16();
            m.mask.bits.tp_dst = 0xffff;
            break;
        case 1:
            m.key.nw_src = a & 0xffffff00;
            m.mask.bits.nw_src = 0xffffff00;
            m.key.nw_dst = b & 0xffffff00;
            m.mask.bits.nw_dst = 0xffffff00;
            break;
        case 2:
            m.key.nw_dst = b;
            m.mask.bits.nw_dst = 0xffffffff;
            m.key.nw_proto = 6;
            m.mask.bits.nw_proto = 0xff;
            m.key.tp_dst = rng_.u16();
            m.mask.bits.tp_dst = 0xffff;
            break;
        case 3:
            m.key.nw_src = a & 0xffff0000;
            m.mask.bits.nw_src = 0xffff0000;
            break;
        case 4:
            m.key.nw_dst = b & 0xffff0000;
            m.mask.bits.nw_dst = 0xffff0000;
            m.key.nw_proto = 17;
            m.mask.bits.nw_proto = 0xff;
            break;
        default:
            m.key.tp_dst = rng_.u16();
            m.mask.bits.tp_dst = 0xffff;
            m.key.nw_proto = 6;
            m.mask.bits.nw_proto = 0xff;
            break;
        }
        const auto section = static_cast<std::uint8_t>(
            table::kAclOverflowFirst + installed % table::kAclSections);
        of.add_rule({.table = section, .priority = 100, .match = m,
                     .actions = {OfAction::drop()}, .cookie = 0xac1 + installed});
        ++installed;
    }
    return installed;
}

void NsxAgent::install_field_coverage()
{
    // Rules exercising the long tail of matchable fields found in real
    // dumps (Table 3 reports 31 distinct fields across all rules).
    auto& of = vswitch_.ofproto();
    auto add = [&](Match m) {
        of.add_rule({.table = table::kDfwAcl, .priority = 500, .match = m,
                     .actions = {OfAction::drop()}});
    };
    Match m;
    m.key.vlan_tci = 0x1fa0;
    m.mask.bits.vlan_tci = 0xffff;
    add(m);
    m = Match{};
    m.key.dl_src = net::MacAddr(0xde, 0xad, 0, 0, 0, 1);
    m.mask.bits.dl_src = net::MacAddr::broadcast();
    add(m);
    m = Match{};
    m.key.dl_dst = net::MacAddr(0x01, 0x00, 0x5e, 0, 0, 0xfb);
    m.mask.bits.dl_dst = net::MacAddr::broadcast();
    add(m);
    m = Match{};
    m.key.nw_tos = 0xb8;
    m.mask.bits.nw_tos = 0xff;
    add(m);
    m = Match{};
    m.key.nw_ttl = 1;
    m.mask.bits.nw_ttl = 0xff;
    add(m);
    m = Match{};
    m.key.nw_frag = net::kFragAny;
    m.mask.bits.nw_frag = 0xff;
    add(m);
    m = Match{};
    m.key.icmp_type = 8;
    m.mask.bits.icmp_type = 0xff;
    m.key.icmp_code = 0;
    m.mask.bits.icmp_code = 0xff;
    m.key.nw_proto = 1;
    m.mask.bits.nw_proto = 0xff;
    add(m);
    m = Match{};
    m.key.tcp_flags = net::kTcpSyn;
    m.mask.bits.tcp_flags = net::kTcpSyn | net::kTcpAck;
    add(m);
    m = Match{};
    m.key.ct_mark = 0x1;
    m.mask.bits.ct_mark = 0xffffffff;
    add(m);
    m = Match{};
    m.key.ct_zone = 7;
    m.mask.bits.ct_zone = 0xffff;
    add(m);
    m = Match{};
    m.key.dl_type = 0x86dd;
    m.mask.bits.dl_type = 0xffff;
    m.key.ipv6_src.bytes[0] = 0xfd;
    m.mask.bits.ipv6_src.bytes.fill(0xff);
    add(m);
    m = Match{};
    m.key.dl_type = 0x86dd;
    m.mask.bits.dl_type = 0xffff;
    m.key.ipv6_dst.bytes[0] = 0xfd;
    m.mask.bits.ipv6_dst.bytes.fill(0xff);
    add(m);
    m = Match{};
    m.key.tun_dst = config_.local_vtep_ip;
    m.mask.bits.tun_dst = 0xffffffff;
    add(m);
    m = Match{};
    m.key.nw_src = net::ipv4(169, 254, 0, 0);
    m.mask.bits.nw_src = 0xffff0000;
    m.key.tp_src = 68;
    m.mask.bits.tp_src = 0xffff;
    add(m);
}

void NsxAgent::install_egress()
{
    auto& of = vswitch_.ofproto();
    std::set<std::uint32_t> vnis;
    for (const auto& vm : config_.vms) vnis.insert(vm.vni);

    for (const auto& vm : config_.vms) {
        Match m;
        m.key.dl_dst = vm.mac;
        m.mask.bits.dl_dst = net::MacAddr::broadcast();
        if (vm.of_port != 0) {
            of.add_rule({.table = table::kEgress, .priority = 100, .match = m,
                         .actions = {OfAction::output(vm.of_port)}});
        } else {
            net::TunnelKey tkey;
            tkey.tun_id = vm.vni;
            tkey.ip_src = config_.local_vtep_ip;
            tkey.ip_dst = vm.remote_vtep;
            of.add_rule({.table = table::kEgress, .priority = 100, .match = m,
                         .actions = {OfAction::set_tunnel(tkey),
                                     OfAction::output(config_.tunnel_of_port)}});
        }
    }
    // Per-VNI BUM flood: local ports plus one replication tunnel.
    for (const std::uint32_t vni : vnis) {
        Match m;
        m.key.dl_dst = net::MacAddr::broadcast();
        m.mask.bits.dl_dst = net::MacAddr::broadcast();
        ovs::OfActions actions;
        for (const auto& vm : config_.vms) {
            if (vm.vni == vni && vm.of_port != 0) {
                actions.push_back(OfAction::output(vm.of_port));
            }
        }
        for (const auto& vm : config_.vms) {
            if (vm.vni == vni && vm.of_port == 0) {
                net::TunnelKey tkey;
                tkey.tun_id = vni;
                tkey.ip_src = config_.local_vtep_ip;
                tkey.ip_dst = vm.remote_vtep;
                actions.push_back(OfAction::set_tunnel(tkey));
                actions.push_back(OfAction::output(config_.tunnel_of_port));
                break;
            }
        }
        if (actions.empty()) actions.push_back(OfAction::drop());
        of.add_rule({.table = table::kEgress, .priority = 50, .match = m,
                     .actions = std::move(actions)});
    }
    of.add_rule({.table = table::kEgress, .priority = 0, .match = match_all(),
                 .actions = {OfAction::drop()}});
}

RulesetStats NsxAgent::stats() const
{
    RulesetStats s;
    s.tunnels = config_.remote_vteps.size();
    s.vms = config_.vms.size() / 2; // two interfaces per VM
    const auto& of = vswitch_.ofproto();
    s.rules = of.rule_count();
    s.tables = of.table_count();
    s.matching_fields = of.distinct_match_fields();
    return s;
}

NsxConfig make_production_config(std::uint32_t local_vtep_ip, std::uint32_t tunnel_of_port,
                                 const std::vector<std::uint32_t>& local_ports,
                                 int local_vm_count, int total_vms, int tunnels)
{
    NsxConfig cfg;
    cfg.local_vtep_ip = local_vtep_ip;
    cfg.tunnel_of_port = tunnel_of_port;
    for (int i = 0; i < tunnels; ++i) {
        cfg.remote_vteps.push_back(net::ipv4(172, 16, static_cast<std::uint8_t>(1 + i / 250),
                                             static_cast<std::uint8_t>(1 + i % 250)));
    }
    // Two interfaces per VM (Table 3); the first `local_vm_count` VMs
    // live on this host.
    int port_cursor = 0;
    for (int vm = 0; vm < total_vms; ++vm) {
        const std::uint32_t vni = 5001 + static_cast<std::uint32_t>(vm % 5);
        for (int iface = 0; iface < 2; ++iface) {
            VmSpec spec;
            spec.name = "vm" + std::to_string(vm) + "-eth" + std::to_string(iface);
            spec.mac = net::MacAddr::from_id(static_cast<std::uint32_t>(0x5000 + vm * 4 + iface));
            spec.ip = net::ipv4(10, static_cast<std::uint8_t>(vni - 5000),
                                static_cast<std::uint8_t>(vm), static_cast<std::uint8_t>(10 + iface));
            spec.vni = vni;
            if (vm < local_vm_count && port_cursor < static_cast<int>(local_ports.size())) {
                spec.of_port = local_ports[static_cast<std::size_t>(port_cursor++)];
            } else {
                spec.remote_vtep = cfg.remote_vteps[static_cast<std::size_t>(vm) %
                                                    cfg.remote_vteps.size()];
            }
            cfg.vms.push_back(std::move(spec));
        }
    }
    return cfg;
}

} // namespace ovsx::nsx

#include "fabric/fabric.h"

#include <map>
#include <set>
#include <stdexcept>

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "kern/stack.h"
#include "net/builder.h"
#include "net/flow.h"
#include "net/int_hdr.h"
#include "net/packet.h"
#include "net/tunnel.h"
#include "nsx/nsx.h"
#include "obs/coverage.h"
#include "obs/int_export.h"
#include "ovs/dpif_appctl.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/ofproto.h"
#include "ovs/vswitch.h"
#include "sim/context.h"

namespace ovsx::fabric {

namespace {

constexpr sim::Nanos kTickNs = 1'000'000; // virtual time per injected frame

std::string ip_str(std::uint32_t ip)
{
    return std::to_string((ip >> 24) & 0xff) + "." + std::to_string((ip >> 16) & 0xff) + "." +
           std::to_string((ip >> 8) & 0xff) + "." + std::to_string(ip & 0xff);
}

ovs::AfxdpOptions afxdp_opts()
{
    ovs::AfxdpOptions opts = ovs::AfxdpOptions::all();
    opts.umem_frames = 512; // many switches per fabric; keep umems small
    return opts;
}

} // namespace

const char* to_string(HostProvider p)
{
    switch (p) {
    case HostProvider::Netdev: return "netdev";
    case HostProvider::Kernel: return "kernel";
    case HostProvider::Ebpf: return "ebpf";
    }
    return "?";
}

std::uint32_t Fabric::vtep_ip(std::size_t host)
{
    return net::ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + host));
}

std::uint32_t Fabric::vm_ip(std::size_t host)
{
    return net::ipv4(192, 168, 1, static_cast<std::uint8_t>(1 + host));
}

net::MacAddr Fabric::vm_mac(std::size_t host)
{
    return net::MacAddr::from_id(0x10 + static_cast<std::uint64_t>(host));
}

net::MacAddr Fabric::uplink_mac(std::size_t host)
{
    return net::MacAddr::from_id(0xA0 + static_cast<std::uint64_t>(host));
}

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct Fabric::Impl {
    // One directional-counter pair per physical link.
    struct LinkState {
        std::string a;
        std::string b;
        std::uint64_t ab = 0;
        std::uint64_t ba = 0;
        sim::Nanos extra_ab = 0;
        sim::Nanos extra_ba = 0;
    };

    struct Host {
        std::size_t index = 0;
        HostProvider provider = HostProvider::Netdev;
        std::unique_ptr<kern::Kernel> kernel;
        kern::PhysicalDevice* vm_dev = nullptr;
        kern::PhysicalDevice* uplink = nullptr;
        std::unique_ptr<ovs::VSwitch> vswitch;  // netdev + kernel providers
        ovs::DpifNetdev* netdev = nullptr;      // borrowed from vswitch
        kern::OvsKernelDatapath* kdp = nullptr; // borrowed from kernel
        std::unique_ptr<ovs::DpifEbpf> ebpf;
        std::unique_ptr<obs::Appctl> ebpf_appctl;
        std::unique_ptr<nsx::NsxAgent> nsx;
        int pmd = -1;
        std::uint32_t vm_port = 0;
        std::uint32_t uplink_port = 0;
        std::uint32_t tunnel_port = 0;
    };

    // A transit (leaf or spine) switch: always the netdev provider, an
    // ofproto ruleset routing on the outer destination VTEP.
    struct Transit {
        std::string name;
        std::uint32_t switch_id = 0;
        std::uint8_t tier = 0;
        std::unique_ptr<kern::Kernel> kernel;
        std::unique_ptr<ovs::VSwitch> vswitch;
        ovs::DpifNetdev* dpif = nullptr;
        int pmd = -1;
        std::map<std::uint32_t, std::uint32_t> routes; // dst VTEP -> port
    };

    FabricConfig cfg;
    std::vector<std::unique_ptr<Host>> hosts;
    std::vector<std::unique_ptr<Transit>> leaves;
    std::vector<std::unique_ptr<Transit>> spines;
    std::vector<std::unique_ptr<LinkState>> links;
    std::vector<DeliveredFrame> delivered;
    sim::ExecContext shim_ctx{"vtep-shim", sim::CpuClass::User};
    std::uint32_t next_trace = 1;
    sim::Nanos now = 0;

    explicit Impl(FabricConfig c) : cfg(std::move(c)) { build(); }

    HostProvider provider_of(std::size_t i) const
    {
        return i < cfg.providers.size() ? cfg.providers[i] : HostProvider::Netdev;
    }

    std::size_t leaf_of(std::size_t host) const { return host % cfg.leaves; }
    std::size_t spine_for(std::size_t dst_host) const { return dst_host % cfg.spines; }

    // ---- construction ----------------------------------------------

    void build()
    {
        if (cfg.hosts < 2) throw std::invalid_argument("fabric needs >= 2 hosts");
        if (cfg.leaves == 0 || cfg.spines == 0) {
            throw std::invalid_argument("fabric needs >= 1 leaf and spine");
        }
        for (std::size_t i = 0; i < cfg.hosts; ++i) build_host(i);
        for (std::size_t l = 0; l < cfg.leaves; ++l) {
            leaves.push_back(build_transit("leaf" + std::to_string(l), leaf_switch_id(l),
                                           net::kIntTierLeaf));
        }
        for (std::size_t s = 0; s < cfg.spines; ++s) {
            spines.push_back(build_transit("spine" + std::to_string(s), spine_switch_id(s),
                                           net::kIntTierSpine));
        }
        wire_topology();
        install_transit_rules();
        for (std::size_t i = 0; i < cfg.hosts; ++i) {
            obs::int_name_host(vtep_ip(i), "h" + std::to_string(i));
        }
        if (cfg.degraded) {
            set_degradation(cfg.degraded->from, cfg.degraded->to, cfg.degraded->extra_ns);
        }
    }

    void build_host(std::size_t i)
    {
        auto host = std::make_unique<Host>();
        host->index = i;
        host->provider = provider_of(i);
        host->kernel = std::make_unique<kern::Kernel>("h" + std::to_string(i));
        host->vm_dev = &host->kernel->add_device<kern::PhysicalDevice>("vm0", vm_mac(i));
        host->uplink = &host->kernel->add_device<kern::PhysicalDevice>("eth0", uplink_mac(i));

        // Underlay addressing: the VTEP lives on the uplink; every
        // remote VTEP resolves to the remote host's uplink MAC (transit
        // switches route on IP and never rewrite Ethernet).
        auto& stack = host->kernel->stack();
        stack.add_address(host->uplink->ifindex(), vtep_ip(i), 24);
        for (std::size_t j = 0; j < cfg.hosts; ++j) {
            if (j == i) continue;
            stack.add_neighbor(vtep_ip(j), uplink_mac(j), host->uplink->ifindex());
        }

        switch (host->provider) {
        case HostProvider::Netdev: build_netdev_host(*host); break;
        case HostProvider::Kernel: build_kernel_host(*host); break;
        case HostProvider::Ebpf: build_ebpf_host(*host); break;
        }

        // Frames the host hands to its VM are fabric deliveries.
        Host* raw = host.get();
        host->vm_dev->connect_wire([this, raw](net::Packet&& p) {
            delivered.push_back({raw->index,
                                 std::vector<std::uint8_t>(p.data(), p.data() + p.size()),
                                 p.meta().trace_id, p.meta().latency_ns});
        });
        hosts.push_back(std::move(host));
    }

    void build_netdev_host(Host& host)
    {
        auto dpif = std::make_unique<ovs::DpifNetdev>(*host.kernel);
        host.netdev = dpif.get();
        host.vm_port = dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*host.vm_dev, afxdp_opts()));
        host.uplink_port =
            dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*host.uplink, afxdp_opts()));
        host.tunnel_port =
            dpif->add_tunnel_port("geneve0", net::TunnelType::Geneve, vtep_ip(host.index));
        net::IntConfig ic;
        ic.enabled = cfg.int_enabled;
        ic.switch_id = host_switch_id(host.index);
        ic.tier = net::kIntTierHost;
        ic.max_hops = cfg.int_max_hops;
        ic.attach_on_encap = true;
        dpif->set_int(ic);
        host.pmd = dpif->add_pmd("h" + std::to_string(host.index) + "-pmd");
        dpif->pmd_assign(host.pmd, host.vm_port, 0);
        dpif->pmd_assign(host.pmd, host.uplink_port, 0);
        host.vswitch = std::make_unique<ovs::VSwitch>(std::move(dpif));
        install_host_ruleset(host);
    }

    void build_kernel_host(Host& host)
    {
        auto& dp = host.kernel->ovs_datapath();
        host.kdp = &dp;
        host.vm_port = dp.add_port(*host.vm_dev);
        // The uplink is deliberately NOT a datapath port: outer Geneve
        // frames land in the IP stack, whose UDP 6081 binding feeds the
        // tunnel vport (the classic kernel tunnel path).
        host.tunnel_port =
            dp.add_tunnel_port("geneve0", net::TunnelType::Geneve, vtep_ip(host.index));
        net::IntConfig ic;
        ic.enabled = cfg.int_enabled;
        ic.switch_id = host_switch_id(host.index);
        ic.tier = net::kIntTierHost;
        ic.max_hops = cfg.int_max_hops;
        ic.attach_on_encap = true;
        dp.set_int(ic);
        host.vswitch = std::make_unique<ovs::VSwitch>(std::make_unique<ovs::DpifKernel>(dp));
        install_host_ruleset(host);
    }

    void build_ebpf_host(Host& host)
    {
        // The eBPF datapath only ever sees inner frames: the VTEP shim
        // at the uplink edge (wire glue) terminates the tunnel, because
        // this datapath cannot rewrite packets in flight. Exact-match
        // flows forward vm <-> uplink.
        host.ebpf = std::make_unique<ovs::DpifEbpf>(*host.kernel);
        host.vm_port = host.ebpf->add_port(*host.vm_dev);
        host.uplink_port = host.ebpf->add_port(*host.uplink);
        host.ebpf_appctl = std::make_unique<obs::Appctl>();
        ovs::register_dpif_commands(*host.ebpf_appctl, *host.ebpf);
        Host* raw = &host;
        host.ebpf->set_upcall_handler([raw](std::uint32_t in_port, net::Packet&& pkt,
                                            const net::FlowKey& key, sim::ExecContext& ctx) {
            kern::OdpActions actions;
            actions.push_back(kern::OdpAction::output(
                in_port == raw->vm_port ? raw->uplink_port : raw->vm_port));
            try {
                raw->ebpf->flow_put(key, ovs::DpifEbpf::required_mask(), actions);
            } catch (const std::invalid_argument&) {
                // Key dimensions the eBPF map cannot express: stay on
                // the upcall slow path for this flow.
            }
            raw->ebpf->execute(std::move(pkt), actions, ctx);
        });
    }

    // The minimal hand-rolled host pipeline: forward on the inner
    // destination MAC — local VM or set_tunnel toward its host.
    void install_host_ruleset(Host& host)
    {
        if (cfg.use_nsx) {
            nsx::NsxConfig ncfg;
            ncfg.local_vtep_ip = vtep_ip(host.index);
            ncfg.tunnel_of_port = host.tunnel_port;
            ncfg.target_rules = cfg.nsx_target_rules;
            for (std::size_t j = 0; j < cfg.hosts; ++j) {
                nsx::VmSpec vm;
                vm.name = "vm" + std::to_string(j);
                vm.mac = vm_mac(j);
                vm.ip = vm_ip(j);
                vm.vni = kVni;
                if (j == host.index) {
                    vm.of_port = host.vm_port;
                } else {
                    vm.remote_vtep = vtep_ip(j);
                    ncfg.remote_vteps.push_back(vtep_ip(j));
                }
                ncfg.vms.push_back(vm);
            }
            host.nsx = std::make_unique<nsx::NsxAgent>(*host.vswitch, ncfg);
            host.nsx->deploy();
            return;
        }
        auto& of = host.vswitch->ofproto();
        for (std::size_t j = 0; j < cfg.hosts; ++j) {
            ovs::Match m;
            m.key.dl_dst = vm_mac(j);
            m.mask.bits.dl_dst = net::MacAddr::broadcast();
            if (j == host.index) {
                of.add_rule({.table = 0, .priority = 100, .match = m,
                             .actions = {ovs::OfAction::output(host.vm_port)}});
            } else {
                net::TunnelKey tkey;
                tkey.tun_id = kVni;
                tkey.ip_src = vtep_ip(host.index);
                tkey.ip_dst = vtep_ip(j);
                of.add_rule({.table = 0, .priority = 100, .match = m,
                             .actions = {ovs::OfAction::set_tunnel(tkey),
                                         ovs::OfAction::output(host.tunnel_port)}});
            }
        }
        of.add_rule({.table = 0, .priority = 0, .match = ovs::Match{},
                     .actions = {ovs::OfAction::drop()}});
    }

    std::unique_ptr<Transit> build_transit(const std::string& name, std::uint32_t switch_id,
                                           std::uint8_t tier)
    {
        auto t = std::make_unique<Transit>();
        t->name = name;
        t->switch_id = switch_id;
        t->tier = tier;
        t->kernel = std::make_unique<kern::Kernel>(name);
        auto dpif = std::make_unique<ovs::DpifNetdev>(*t->kernel);
        t->dpif = dpif.get();
        net::IntConfig ic;
        ic.enabled = cfg.int_enabled;
        ic.switch_id = switch_id;
        ic.tier = tier;
        ic.max_hops = cfg.int_max_hops;
        ic.attach_on_encap = false; // transit stamps, never originates
        dpif->set_int(ic);
        t->pmd = dpif->add_pmd(name + "-pmd");
        t->vswitch = std::make_unique<ovs::VSwitch>(std::move(dpif));
        return t;
    }

    std::uint32_t add_transit_port(Transit& t, const std::string& devname, std::uint64_t mac_id,
                                   kern::PhysicalDevice** dev_out)
    {
        auto& dev =
            t.kernel->add_device<kern::PhysicalDevice>(devname, net::MacAddr::from_id(mac_id));
        const std::uint32_t port =
            t.dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(dev, afxdp_opts()));
        t.dpif->pmd_assign(t.pmd, port, 0);
        *dev_out = &dev;
        return port;
    }

    LinkState* add_link(std::string a, std::string b)
    {
        links.push_back(std::make_unique<LinkState>());
        links.back()->a = std::move(a);
        links.back()->b = std::move(b);
        return links.back().get();
    }

    void wire_topology()
    {
        std::uint64_t mac_id = 0xC000;
        // host <-> leaf
        for (std::size_t i = 0; i < cfg.hosts; ++i) {
            Host* host = hosts[i].get();
            Transit* leaf = leaves[leaf_of(i)].get();
            kern::PhysicalDevice* leaf_dev = nullptr;
            const std::uint32_t leaf_port =
                add_transit_port(*leaf, "h" + std::to_string(i), mac_id++, &leaf_dev);
            leaf->routes[vtep_ip(i)] = leaf_port;
            LinkState* link = add_link("h" + std::to_string(i), leaf->name);

            host->uplink->connect_wire([this, host, link, leaf_dev](net::Packet&& p) {
                if (host->provider == HostProvider::Ebpf) shim_egress(*host, p);
                ++link->ab;
                p.meta().latency_ns += link->extra_ab;
                leaf_dev->rx_from_wire(std::move(p));
            });
            leaf_dev->connect_wire([this, host, link](net::Packet&& p) {
                ++link->ba;
                p.meta().latency_ns += link->extra_ba;
                if (host->provider == HostProvider::Ebpf && !shim_ingress(*host, p)) return;
                host->uplink->rx_from_wire(std::move(p));
            });
        }
        // leaf <-> spine (full mesh)
        for (std::size_t l = 0; l < cfg.leaves; ++l) {
            for (std::size_t s = 0; s < cfg.spines; ++s) {
                Transit* leaf = leaves[l].get();
                Transit* spine = spines[s].get();
                kern::PhysicalDevice* leaf_dev = nullptr;
                kern::PhysicalDevice* spine_dev = nullptr;
                const std::uint32_t leaf_port =
                    add_transit_port(*leaf, "s" + std::to_string(s), mac_id++, &leaf_dev);
                const std::uint32_t spine_port =
                    add_transit_port(*spine, "l" + std::to_string(l), mac_id++, &spine_dev);
                // Leaf routes for hosts on other leaves go via the
                // spine the destination hashes to; spine routes always
                // descend to the destination's leaf.
                for (std::size_t j = 0; j < cfg.hosts; ++j) {
                    if (leaf_of(j) != l && spine_for(j) == s) {
                        leaf->routes[vtep_ip(j)] = leaf_port;
                    }
                    if (leaf_of(j) == l) spine->routes[vtep_ip(j)] = spine_port;
                }
                LinkState* link = add_link(leaf->name, spine->name);
                leaf_dev->connect_wire([link, spine_dev](net::Packet&& p) {
                    ++link->ab;
                    p.meta().latency_ns += link->extra_ab;
                    spine_dev->rx_from_wire(std::move(p));
                });
                spine_dev->connect_wire([link, leaf_dev](net::Packet&& p) {
                    ++link->ba;
                    p.meta().latency_ns += link->extra_ba;
                    leaf_dev->rx_from_wire(std::move(p));
                });
            }
        }
    }

    void install_transit_rules()
    {
        auto install = [](Transit& t) {
            auto& of = t.vswitch->ofproto();
            for (const auto& [dst_ip, port] : t.routes) {
                ovs::Match m;
                m.key.dl_type = 0x0800;
                m.mask.bits.dl_type = 0xffff;
                m.key.nw_dst = dst_ip;
                m.mask.bits.nw_dst = 0xffffffff;
                of.add_rule({.table = 0, .priority = 100, .match = m,
                             .actions = {ovs::OfAction::output(port)}});
            }
            of.add_rule({.table = 0, .priority = 0, .match = ovs::Match{},
                         .actions = {ovs::OfAction::drop()}});
        };
        for (auto& l : leaves) install(*l);
        for (auto& s : spines) install(*s);
    }

    // ---- eBPF VTEP shim --------------------------------------------

    void shim_egress(Host& host, net::Packet& pkt)
    {
        const net::FlowKey key = net::parse_flow(pkt);
        const std::uint32_t last = key.nw_dst & 0xff;
        if (last == 0 || last > cfg.hosts) return; // not fabric VM traffic
        const std::size_t dst = last - 1;
        if (dst == host.index) return;
        net::TunnelKey tkey;
        tkey.tun_id = kVni;
        tkey.ip_src = vtep_ip(host.index);
        tkey.ip_dst = vtep_ip(dst);
        net::EncapParams ep;
        ep.outer_src_mac = uplink_mac(host.index);
        ep.outer_dst_mac = uplink_mac(dst);
        net::encapsulate(pkt, net::TunnelType::Geneve, tkey, ep);
        if (!cfg.int_enabled) return;
        net::int_attach(pkt, cfg.int_max_hops);
        net::IntHop hop;
        hop.switch_id = host_switch_id(host.index);
        hop.ingress_tier = net::kIntTierHost;
        hop.egress_tier = net::kIntTierHost;
        hop.occupancy = 1;
        hop.latency_ticks =
            static_cast<std::uint32_t>(pkt.meta().latency_ns / net::kIntTickNs);
        if (net::int_stamp(pkt, hop)) OVSX_COVERAGE_CTX(shim_ctx, "int.stamped");
    }

    bool shim_ingress(Host& host, net::Packet& pkt)
    {
        auto res = net::decapsulate(pkt, net::TunnelType::Geneve);
        if (!res) return false; // non-tunnel noise never reaches the datapath
        if (cfg.int_enabled && !res->geneve_opts.empty()) {
            bool truncated = false;
            const auto hops = net::int_parse_options(
                std::span<const std::uint8_t>(res->geneve_opts), &truncated);
            if (!hops.empty() || truncated) {
                std::vector<obs::IntHopSample> samples;
                samples.reserve(hops.size());
                for (const auto& h : hops) {
                    samples.push_back({h.switch_id, h.ingress_tier, h.egress_tier, h.occupancy,
                                       static_cast<std::int64_t>(h.latency_ticks) *
                                           net::kIntTickNs});
                }
                obs::int_export(res->key.ip_src, res->key.ip_dst, samples, truncated);
            }
        }
        return true;
    }

    // ---- traffic ----------------------------------------------------

    void tick()
    {
        now += kTickNs;
        for (auto& h : hosts) {
            if (h->netdev) h->netdev->set_now(now);
            if (h->kdp) h->kdp->set_now(now);
            if (h->ebpf) h->ebpf->set_now(now);
        }
        for (auto& l : leaves) l->dpif->set_now(now);
        for (auto& s : spines) s->dpif->set_now(now);
    }

    void drain()
    {
        for (;;) {
            std::uint32_t moved = 0;
            for (auto& h : hosts) {
                if (h->netdev) moved += h->netdev->pmd_poll_once(h->pmd);
            }
            for (auto& l : leaves) moved += l->dpif->pmd_poll_once(l->pmd);
            for (auto& s : spines) moved += s->dpif->pmd_poll_once(s->pmd);
            if (moved == 0) break;
        }
    }

    void send(std::size_t src, std::size_t dst, std::size_t count, std::size_t payload_len)
    {
        if (src >= cfg.hosts || dst >= cfg.hosts || src == dst) {
            throw std::invalid_argument("bad fabric src/dst host");
        }
        for (std::size_t i = 0; i < count; ++i) {
            tick();
            net::UdpSpec spec;
            spec.src_mac = vm_mac(src);
            spec.dst_mac = vm_mac(dst);
            spec.src_ip = vm_ip(src);
            spec.dst_ip = vm_ip(dst);
            spec.src_port = static_cast<std::uint16_t>(10000 + src);
            spec.dst_port = static_cast<std::uint16_t>(20000 + dst);
            spec.payload_len = payload_len;
            net::Packet pkt = net::build_udp(spec);
            pkt.meta().trace_id = next_trace++;
            hosts[src]->vm_dev->rx_from_wire(std::move(pkt));
            if (cfg.batch_size && (i + 1) % cfg.batch_size == 0) drain();
        }
        drain();
    }

    // ---- links / rendering -----------------------------------------

    void set_degradation(const std::string& from, const std::string& to, sim::Nanos extra)
    {
        for (auto& l : links) {
            if (l->a == from && l->b == to) {
                l->extra_ab = extra;
                return;
            }
            if (l->b == from && l->a == to) {
                l->extra_ba = extra;
                return;
            }
        }
        throw std::out_of_range("unknown fabric link " + from + "->" + to);
    }

    obs::Value render() const
    {
        auto root = obs::Value::object();
        auto hosts_v = obs::Value::array();
        for (const auto& h : hosts) {
            auto o = obs::Value::object();
            o.set("name", "h" + std::to_string(h->index));
            o.set("provider", to_string(h->provider));
            o.set("switch_id", static_cast<unsigned long long>(host_switch_id(h->index)));
            o.set("vtep", ip_str(vtep_ip(h->index)));
            o.set("vm_ip", ip_str(vm_ip(h->index)));
            o.set("leaf", "leaf" + std::to_string(leaf_of(h->index)));
            hosts_v.push(std::move(o));
        }
        root.set("hosts", std::move(hosts_v));
        auto switches = obs::Value::array();
        auto add_switch = [&switches](const Transit& t, const char* tier) {
            auto o = obs::Value::object();
            o.set("name", t.name);
            o.set("tier", tier);
            o.set("switch_id", static_cast<unsigned long long>(t.switch_id));
            switches.push(std::move(o));
        };
        for (const auto& l : leaves) add_switch(*l, "leaf");
        for (const auto& s : spines) add_switch(*s, "spine");
        root.set("switches", std::move(switches));
        auto links_v = obs::Value::array();
        for (const auto& l : links) {
            auto o = obs::Value::object();
            o.set("a", l->a);
            o.set("b", l->b);
            o.set("a_to_b", static_cast<unsigned long long>(l->ab));
            o.set("b_to_a", static_cast<unsigned long long>(l->ba));
            o.set("extra_ns_ab", static_cast<long long>(l->extra_ab));
            o.set("extra_ns_ba", static_cast<long long>(l->extra_ba));
            links_v.push(std::move(o));
        }
        root.set("links", std::move(links_v));
        return root;
    }
};

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(FabricConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg)))
{
    Impl* impl = impl_.get();
    obs::fabric_show_set_provider([impl] { return impl->render(); });
}

Fabric::~Fabric()
{
    obs::fabric_show_set_provider({});
}

const FabricConfig& Fabric::config() const { return impl_->cfg; }
std::size_t Fabric::host_count() const { return impl_->cfg.hosts; }
HostProvider Fabric::provider(std::size_t host) const { return impl_->provider_of(host); }

std::string Fabric::switch_name(std::uint32_t switch_id) const
{
    if (switch_id >= 201) return "spine" + std::to_string(switch_id - 201);
    if (switch_id >= 101) return "leaf" + std::to_string(switch_id - 101);
    if (switch_id >= 1) return "h" + std::to_string(switch_id - 1);
    return "?";
}

std::vector<std::uint32_t> Fabric::expected_chain(std::size_t src, std::size_t dst) const
{
    std::vector<std::uint32_t> chain;
    chain.push_back(host_switch_id(src));
    const std::size_t src_leaf = impl_->leaf_of(src);
    const std::size_t dst_leaf = impl_->leaf_of(dst);
    chain.push_back(leaf_switch_id(src_leaf));
    if (src_leaf != dst_leaf) {
        chain.push_back(spine_switch_id(impl_->spine_for(dst)));
        chain.push_back(leaf_switch_id(dst_leaf));
    }
    return chain;
}

void Fabric::send(std::size_t src, std::size_t dst, std::size_t count, std::size_t payload_len)
{
    impl_->send(src, dst, count, payload_len);
}

void Fabric::drain() { impl_->drain(); }

std::vector<DeliveredFrame>& Fabric::delivered() { return impl_->delivered; }
void Fabric::clear_delivered() { impl_->delivered.clear(); }

obs::Appctl& Fabric::appctl(std::size_t host)
{
    auto& h = *impl_->hosts.at(host);
    return h.vswitch ? h.vswitch->appctl() : *h.ebpf_appctl;
}

std::vector<LinkLoad> Fabric::link_loads() const
{
    std::vector<LinkLoad> out;
    out.reserve(impl_->links.size());
    for (const auto& l : impl_->links) {
        out.push_back({l->a, l->b, l->ab, l->ba, l->extra_ab, l->extra_ba});
    }
    return out;
}

void Fabric::set_link_degradation(const std::string& from, const std::string& to,
                                  sim::Nanos extra_ns)
{
    impl_->set_degradation(from, to, extra_ns);
}

obs::Value Fabric::fabric_show() const { return impl_->render(); }

// ---------------------------------------------------------------------------
// Cross-provider fabric differential
// ---------------------------------------------------------------------------

std::string FabricDiffReport::summary() const
{
    std::string s = "fabric differential: " + std::to_string(frames_sent) + " frames, " +
                    std::to_string(divergences.size()) + " divergences";
    for (const auto& d : divergences) s += "\n  " + d;
    return s;
}

FabricDiffReport run_fabric_differential(std::size_t hosts, std::size_t frames_per_pair,
                                         std::size_t batch_size,
                                         std::uint32_t inject_drop_trace)
{
    FabricDiffReport report;
    const HostProvider kinds[] = {HostProvider::Netdev, HostProvider::Kernel,
                                  HostProvider::Ebpf};

    // The identical schedule each fabric runs: every ordered host pair,
    // frames_per_pair frames. Trace ids are assigned in schedule order,
    // so trace t maps to pair (t-1)/frames_per_pair on every provider.
    std::vector<std::pair<std::size_t, std::size_t>> schedule;
    for (std::size_t s = 0; s < hosts; ++s) {
        for (std::size_t d = 0; d < hosts; ++d) {
            if (s != d) schedule.emplace_back(s, d);
        }
    }
    report.frames_sent = schedule.size() * frames_per_pair;

    struct Run {
        HostProvider kind;
        std::vector<DeliveredFrame> delivered;
        std::vector<std::string> journeys; // per pair, rendered switch chain
    };
    std::vector<Run> runs;
    for (const HostProvider kind : kinds) {
        FabricConfig cfg;
        cfg.hosts = hosts;
        cfg.batch_size = batch_size;
        cfg.providers.assign(hosts, kind);
        Fabric fabric(cfg);
        Run run;
        run.kind = kind;
        for (const auto& [s, d] : schedule) {
            fabric.send(s, d, frames_per_pair);
            std::string journey = "h" + std::to_string(s) + "->h" + std::to_string(d) + " via";
            for (const std::uint32_t id : fabric.expected_chain(s, d)) {
                journey += " " + fabric.switch_name(id);
            }
            run.journeys.push_back(journey);
        }
        run.delivered = std::move(fabric.delivered());
        if (inject_drop_trace && kind == HostProvider::Netdev) {
            std::erase_if(run.delivered, [&](const DeliveredFrame& f) {
                return f.trace_id == inject_drop_trace;
            });
        }
        runs.push_back(std::move(run));
    }

    std::vector<std::map<std::uint32_t, const DeliveredFrame*>> by_trace(runs.size());
    std::set<std::uint32_t> all_traces;
    for (std::size_t r = 0; r < runs.size(); ++r) {
        for (const auto& d : runs[r].delivered) {
            by_trace[r][d.trace_id] = &d;
            all_traces.insert(d.trace_id);
        }
    }
    for (const std::uint32_t trace : all_traces) {
        const std::size_t pair = (trace - 1) / frames_per_pair;
        const DeliveredFrame* ref = nullptr;
        std::string detail;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            auto it = by_trace[r].find(trace);
            const std::string who = to_string(runs[r].kind);
            if (it == by_trace[r].end()) {
                detail += " " + who + "=missing";
                continue;
            }
            if (!ref) {
                ref = it->second;
                continue;
            }
            if (it->second->dst_host != ref->dst_host) {
                detail += " " + who + "=wrong-host(h" + std::to_string(it->second->dst_host) +
                          ")";
            } else if (it->second->bytes != ref->bytes) {
                detail += " " + who + "=bytes-differ(" +
                          std::to_string(it->second->bytes.size()) + "B vs " +
                          std::to_string(ref->bytes.size()) + "B)";
            }
        }
        if (!detail.empty() && pair < runs[0].journeys.size()) {
            report.divergences.push_back("trace " + std::to_string(trace) + " (" +
                                         runs[0].journeys[pair] + "):" + detail);
        }
    }
    // A provider that delivered fewer frames overall diverged even if
    // the missing traces never appeared anywhere.
    for (std::size_t r = 1; r < runs.size(); ++r) {
        if (runs[r].delivered.size() != runs[0].delivered.size()) {
            report.divergences.push_back(
                std::string(to_string(runs[r].kind)) + " delivered " +
                std::to_string(runs[r].delivered.size()) + " frames vs " +
                std::to_string(runs[0].delivered.size()) + " on netdev");
        }
    }
    return report;
}

} // namespace ovsx::fabric

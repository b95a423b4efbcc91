// The three workloads: traffic generated from the seed, the ruleset each
// installs, and the benchmark's own model of that ruleset.
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "net/builder.h"
#include "net/tunnel.h"
#include "nsx/nsx.h"
#include "perfbench.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

// Frame size on the wire includes the 4-byte FCS, which is not stored.
std::size_t payload_for(std::size_t frame_size) { return frame_size - (14 + 20 + 8 + 4); }

// Server ports stay clear of the tunnel ports (4789, 6081), so no
// inner frame reads as a tunnel frame.
std::uint16_t client_port(sim::Rng& rng)
{
    return static_cast<std::uint16_t>(1024 + rng.below(3000)); // 1024..4023
}

std::vector<std::uint32_t> shuffled(std::uint32_t n, sim::Rng& rng)
{
    std::vector<std::uint32_t> v(n);
    for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
    for (std::uint32_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

// Timed bursts per provider for a run of `seconds`: a fixed nominal rate
// per workload, so every run of one length does the same work (about
// `seconds` of wall time for all four providers on a 4-core 2 GHz host).
std::size_t bursts_for(double seconds, double per_second)
{
    return static_cast<std::size_t>(std::max(1.0, seconds) * per_second);
}

// Cuts a packet stream into fixed-size bursts.
void append_bursts(Schedule& s, const std::vector<Desc>& pkts, std::size_t burst)
{
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        s.pkts.push_back(pkts[i]);
        if ((i + 1) % burst == 0 || i + 1 == pkts.size()) s.end_burst();
    }
}

// ---- P2P ---------------------------------------------------------------

// One rule of a multi-table L3 pipeline. The same list is installed
// into ofproto and evaluated by P2pWorkload::model_port().
struct PrefixRule {
    std::uint8_t table = 0;
    int priority = 0;
    std::uint32_t dst = 0;
    std::uint32_t dst_mask = 0;
    std::uint16_t tp_dst = 0;
    std::uint16_t tp_dst_mask = 0;
    enum class Act { Output, Goto, Drop } act = Act::Drop;
    std::uint32_t arg = 0; // port index (Output) or table (Goto)

    bool matches(std::uint32_t d, std::uint16_t tp) const
    {
        return (d & dst_mask) == (dst & dst_mask) && (tp & tp_dst_mask) == (tp_dst & tp_dst_mask);
    }
};

struct P2pFlow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
};

std::uint32_t prefix_mask(int len) { return len ? ~std::uint32_t{0} << (32 - len) : 0; }

class P2pWorkload : public Workload {
public:
    struct Params {
        const char* name;
        bool churn; // false: p2p-1k; true: p2p-100k-churn
    };

    P2pWorkload(Params params, std::uint64_t seed, double seconds) : params_(params)
    {
        sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + (params.churn ? 2 : 1));
        if (params.churn) {
            make_churn(rng, seconds);
        } else {
            make_1k(rng, seconds);
        }
    }

    const char* name() const override { return params_.name; }

    std::unique_ptr<Leg> build(Provider p, bool trace) const override
    {
        auto leg = std::make_unique<Leg>(p);
        leg->spans.on = trace;
        kern::NicConfig cfg;
        for (int i = 0; i < 3; ++i) {
            leg->devs.push_back(&leg->kernel.add_device<kern::PhysicalDevice>(
                "eth" + std::to_string(i), net::MacAddr::from_id(static_cast<std::uint64_t>(i + 1)),
                cfg));
        }
        leg->attach_datapath({true, true, true}, 0);
        ScopedSpan install(leg->spans, SpanName::Install);
        auto& of = leg->vswitch->ofproto();
        for (const PrefixRule& r : rules_) {
            ovs::OfRule rule;
            rule.table = r.table;
            rule.priority = r.priority;
            rule.match.key.nw_dst = r.dst & r.dst_mask;
            rule.match.mask.bits.nw_dst = r.dst_mask;
            rule.match.key.tp_dst = static_cast<std::uint16_t>(r.tp_dst & r.tp_dst_mask);
            rule.match.mask.bits.tp_dst = r.tp_dst_mask;
            switch (r.act) {
            case PrefixRule::Act::Output:
                rule.actions = {ovs::OfAction::output(leg->port_no[r.arg])};
                break;
            case PrefixRule::Act::Goto:
                rule.actions = {ovs::OfAction::goto_table(static_cast<std::uint8_t>(r.arg))};
                break;
            case PrefixRule::Act::Drop: rule.actions = {ovs::OfAction::drop()}; break;
            }
            of.add_rule(std::move(rule));
        }
        return leg;
    }

    net::Packet frame(Desc d, Provider, std::uint32_t* in_port) const override
    {
        *in_port = 0;
        const P2pFlow& f = flows_[d];
        net::UdpSpec spec;
        spec.src_mac = net::MacAddr::from_id(0x100);
        spec.dst_mac = net::MacAddr::from_id(0x200);
        spec.src_ip = f.src;
        spec.dst_ip = f.dst;
        spec.src_port = f.sport;
        spec.dst_port = f.dport;
        spec.payload_len = payload_for(64);
        return net::build_udp(spec);
    }

    Output expect(Desc d, Provider p) const override
    {
        std::uint32_t in = 0;
        const net::Packet pkt = frame(d, p, &in);
        Output out;
        out.port = model_port(flows_[d]);
        out.bytes.assign(pkt.data(), pkt.data() + pkt.size());
        return out;
    }

    kern::CtSpec ct_spec(Desc) const override { return {}; }

private:
    // Egress port index of `f` under the rules: the highest-priority
    // match in each table, following goto_table, as ofproto would.
    std::uint32_t model_port(const P2pFlow& f) const
    {
        std::uint8_t table = 0;
        for (int hops = 0; hops < 16; ++hops) {
            const PrefixRule* best = nullptr;
            for (const PrefixRule& r : rules_) {
                if (r.table != table || !r.matches(f.dst, f.dport)) continue;
                if (!best || r.priority > best->priority) best = &r;
            }
            if (!best || best->act == PrefixRule::Act::Drop) return kNoPort;
            if (best->act == PrefixRule::Act::Output) return best->arg;
            table = static_cast<std::uint8_t>(best->arg);
        }
        return kNoPort;
    }

    P2pFlow random_flow(sim::Rng& rng, std::uint32_t first_octets) const
    {
        P2pFlow f;
        f.src = (48u << 24) | (rng.u32() & 0xffffff);
        f.dst = ((16u + static_cast<std::uint32_t>(rng.below(first_octets))) << 24) |
                (rng.u32() & 0xffffff);
        f.sport = client_port(rng);
        return f;
    }

    // 1,000 flows, a few /10 prefix rules, uniform popularity. Warm-up
    // offers every flow 128 times in shuffled order, enough for the
    // EMC's 1-in-100 insertion to take in nearly every flow.
    void make_1k(sim::Rng& rng, double seconds)
    {
        constexpr std::uint32_t kFlows = 1000;
        for (std::uint32_t i = 0; i < kFlows; ++i) {
            P2pFlow f = random_flow(rng, 1);
            f.dport = static_cast<std::uint16_t>(1024 + rng.below(3000));
            flows_.push_back(f);
        }
        for (std::uint32_t q = 0; q < 4; ++q) {
            rules_.push_back({0, 100, (16u << 24) | (q << 22), prefix_mask(10), 0, 0,
                              PrefixRule::Act::Output, 1 + q % 2});
        }
        rules_.push_back({0, 0, 0, 0, 0, 0, PrefixRule::Act::Drop, 0});

        std::vector<Desc> warm;
        for (int pass = 0; pass < 128; ++pass) {
            for (std::uint32_t f : shuffled(kFlows, rng)) warm.push_back(f);
        }
        append_bursts(warmup, warm, 32);

        std::vector<Desc> timed_pkts(bursts_for(seconds, 6000) * 32);
        for (auto& d : timed_pkts) d = static_cast<Desc>(rng.below(kFlows));
        append_bursts(timed, timed_pkts, 32);
        chunk_bursts = 512;
        trace_chunks = 8;
        determinism_bursts = 1024;
        setup_rounds = 64;
    }

    // ~100k Zipf-popular flows over eight tables whose prefix lengths
    // (some with tp_dst) give eight megaflow masks; 1% of packets come
    // from never-seen flows. Warm-up offers each known flow once.
    void make_churn(sim::Rng& rng, double seconds)
    {
        constexpr std::uint32_t kBase = 100000;
        const std::size_t timed_len = bursts_for(seconds, 2600) * 32;
        constexpr double kNewShare = 0.01;
        constexpr double kZipfS = 0.9;
        auto make_flow = [&] {
            P2pFlow f = random_flow(rng, 8);
            f.dport = static_cast<std::uint16_t>(1024 + 37 * rng.below(64));
            return f;
        };
        for (std::uint32_t i = 0; i < kBase; ++i) flows_.push_back(make_flow());

        struct TableShape {
            int prefix;
            bool tp_dst;
        };
        static constexpr TableShape kShapes[8] = {{12, false}, {14, false}, {16, false},
                                                  {18, false}, {20, false}, {24, false},
                                                  {16, true},  {20, true}};
        for (std::uint32_t t = 0; t < 8; ++t) {
            const std::uint32_t octet = 16 + t;
            rules_.push_back({0, 100, octet << 24, prefix_mask(8), 0, 0, PrefixRule::Act::Goto,
                              t + 1});
            const auto table = static_cast<std::uint8_t>(t + 1);
            const TableShape shape = kShapes[t];
            // Prefixes taken from known flows of this table, so the
            // rules carry real traffic to port 2; the rest go to port 1.
            int added = 0;
            for (std::uint32_t i = 0; i < kBase && added < 32; i += 97) {
                const P2pFlow& f = flows_[i];
                if ((f.dst >> 24) != octet) continue;
                rules_.push_back({table, 100, f.dst, prefix_mask(shape.prefix),
                                  shape.tp_dst ? f.dport : std::uint16_t{0},
                                  shape.tp_dst ? std::uint16_t{0xffff} : std::uint16_t{0},
                                  PrefixRule::Act::Output, 2});
                ++added;
            }
            rules_.push_back({table, 0, 0, 0, 0, 0, PrefixRule::Act::Output, 1});
        }
        rules_.push_back({0, 0, 0, 0, 0, 0, PrefixRule::Act::Drop, 0});

        std::vector<Desc> warm;
        for (std::uint32_t f : shuffled(kBase, rng)) warm.push_back(f);
        append_bursts(warmup, warm, 32);

        // Zipf ranks map onto a random permutation of the known flows.
        const std::vector<std::uint32_t> by_rank = shuffled(kBase, rng);
        std::vector<double> cdf(kBase);
        double acc = 0;
        for (std::uint32_t r = 0; r < kBase; ++r) {
            acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
            cdf[r] = acc;
        }
        std::vector<Desc> timed_pkts(timed_len);
        for (auto& d : timed_pkts) {
            if (rng.uniform() < kNewShare) {
                d = static_cast<Desc>(flows_.size());
                flows_.push_back(make_flow());
                continue;
            }
            const double u = rng.uniform() * acc;
            const auto r = static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                                    cdf.begin());
            d = by_rank[std::min<std::size_t>(r, kBase - 1)];
        }
        append_bursts(timed, timed_pkts, 32);
        chunk_bursts = 128;
        trace_chunks = 12;
        determinism_bursts = 2048;
        setup_rounds = 64;
    }

    Params params_;
    std::vector<P2pFlow> flows_;
    std::vector<PrefixRule> rules_;
};

// ---- NSX ---------------------------------------------------------------

// The NSX agent's Table-3 pipeline (~103k rules, 40 tables) on a host
// with eight local VM interfaces and a Geneve uplink. Local VMs open
// short UDP request/response connections to remote VMs of their
// logical switch; replies come back through the tunnel.
class NsxWorkload : public Workload {
public:
    NsxWorkload(std::uint64_t seed, double seconds)
    {
        // VM addresses only; the OpenFlow ports are filled per leg.
        spec_ = nsx::make_production_config(kLocalVtep, 0, {1, 2, 3, 4, 5, 6, 7, 8}, 4, 15, 291);
        for (std::size_t l = 0; l < kLocalIfaces; ++l) {
            for (std::size_t r = kLocalIfaces; r < spec_.vms.size(); ++r) {
                if (spec_.vms[l].vni == spec_.vms[r].vni) {
                    pairs_.push_back({static_cast<std::uint8_t>(l), static_cast<std::uint8_t>(r)});
                }
            }
        }
        sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
        make_schedule(rng, bursts_for(seconds, 7500));
        step_ns = 5000;
        chunk_bursts = 1024;
        trace_chunks = 8;
        determinism_bursts = 8192;
        setup_rounds = 15;
    }

    const char* name() const override { return "nsx-conn"; }

    std::unique_ptr<Leg> build(Provider p, bool trace) const override
    {
        auto leg = std::make_unique<Leg>(p);
        leg->spans.on = trace;
        for (std::size_t i = 0; i < kLocalIfaces; ++i) {
            leg->devs.push_back(&leg->kernel.add_device<kern::PhysicalDevice>(
                "vm" + std::to_string(i), net::MacAddr::from_id(0x7000 + i)));
        }
        auto& uplink =
            leg->kernel.add_device<kern::PhysicalDevice>("uplink0", kUplinkMac);
        leg->devs.push_back(&uplink);
        auto& stack = leg->kernel.stack();
        stack.add_address(uplink.ifindex(), kLocalVtep, 16);
        for (const std::uint32_t vtep : spec_.remote_vteps) {
            stack.add_neighbor(vtep, kRouterMac, uplink.ifindex());
        }

        // The kernel datapath takes Geneve from the IP stack's UDP 6081
        // socket, so its uplink is no datapath port. The eBPF datapath
        // sees inner frames only: a VTEP shim at the uplink terminates
        // the tunnel, since this datapath cannot encapsulate.
        std::vector<bool> dp_port(kLocalIfaces + 1, true);
        dp_port[kUplink] = p != Provider::Kernel;
        leg->attach_datapath(dp_port, p == Provider::Ebpf ? 0 : kLocalVtep);
        const std::uint32_t tunnel_of_port = p == Provider::Ebpf ? kShimTunnelPort : leg->tunnel_port;

        nsx::NsxConfig cfg = nsx::make_production_config(
            kLocalVtep, tunnel_of_port,
            std::vector<std::uint32_t>(leg->port_no.begin(), leg->port_no.begin() + kLocalIfaces),
            4, 15, 291);
        nsx::NsxAgent agent(*leg->vswitch, cfg);
        {
            ScopedSpan install(leg->spans, SpanName::Install);
            agent.deploy();
        }
        if (leg->netdev) {
            leg->netdev->ct().set_idle_timeout(kIdleTimeout);
        } else {
            leg->kernel.conntrack().set_idle_timeout(kIdleTimeout);
        }
        if (p == Provider::Ebpf) leg->flattened = this;
        return leg;
    }

    net::Packet frame(Desc d, Provider p, std::uint32_t* in_port) const override
    {
        const Conn& c = conns_[d >> 3];
        const bool reply = (d >> 2) & 1;
        net::Packet pkt = inner(d);
        if (!reply) {
            *in_port = c.local;
            return pkt;
        }
        *in_port = kUplink;
        if (p != Provider::Ebpf) {
            const nsx::VmSpec& remote = spec_.vms[c.remote];
            net::TunnelKey key;
            key.tun_id = remote.vni;
            key.ip_src = remote.remote_vtep;
            key.ip_dst = kLocalVtep;
            net::EncapParams params;
            params.outer_src_mac = kRouterMac;
            params.outer_dst_mac = kUplinkMac;
            params.udp_src_port = static_cast<std::uint16_t>(0xc000 | ((d >> 3) & 0x3fff));
            net::encapsulate(pkt, net::TunnelType::Geneve, key, params);
        }
        return pkt;
    }

    Output expect(Desc d, Provider p) const override
    {
        const Conn& c = conns_[d >> 3];
        const bool reply = (d >> 2) & 1;
        const net::Packet pkt = inner(d);
        Output out;
        out.bytes.assign(pkt.data(), pkt.data() + pkt.size());
        if (reply) {
            out.port = c.local;
            return out;
        }
        out.port = kUplink;
        if (p != Provider::Ebpf) {
            const nsx::VmSpec& remote = spec_.vms[c.remote];
            out.tunnel = static_cast<std::uint64_t>(remote.remote_vtep) << 32 |
                         static_cast<std::uint64_t>(kLocalVtep & 0xff) << 24 | remote.vni;
        }
        return out;
    }

    kern::CtSpec ct_spec(Desc d) const override
    {
        kern::CtSpec spec;
        spec.zone = nsx::NsxAgent::zone_for_vni(spec_.vms[conns_[d >> 3].local].vni);
        return spec;
    }

private:
    static constexpr std::size_t kLocalIfaces = 8; // 4 local VMs, two interfaces each
    static constexpr std::uint32_t kUplink = kLocalIfaces;
    static constexpr std::uint32_t kShimTunnelPort = 4000;
    static constexpr sim::Nanos kIdleTimeout = 20'000'000; // 4,000 bursts of virtual time
    static constexpr std::uint32_t kLocalVtep = (172u << 24) | (16u << 16) | 1u;
    inline static const net::MacAddr kUplinkMac = net::MacAddr::from_id(0xa0);
    inline static const net::MacAddr kRouterMac = net::MacAddr::from_id(0xb0);

    struct Conn {
        std::uint8_t local = 0;  // index into spec_.vms (and port index)
        std::uint8_t remote = 0; // index into spec_.vms
        std::uint16_t sport = 0;
        std::uint16_t dport = 0;
    };

    // The inner frame of `d`: request local -> remote, or the reply.
    net::Packet inner(Desc d) const
    {
        static constexpr std::size_t kSizes[3] = {64, 576, 1500};
        const Conn& c = conns_[d >> 3];
        const bool reply = (d >> 2) & 1;
        const nsx::VmSpec& a = spec_.vms[reply ? c.remote : c.local];
        const nsx::VmSpec& b = spec_.vms[reply ? c.local : c.remote];
        net::UdpSpec spec;
        spec.src_mac = a.mac;
        spec.dst_mac = b.mac;
        spec.src_ip = a.ip;
        spec.dst_ip = b.ip;
        spec.src_port = reply ? c.dport : c.sport;
        spec.dst_port = reply ? c.sport : c.dport;
        spec.payload_len = payload_for(kSizes[d & 3]);
        return net::build_udp(spec);
    }

    // Active connections take turns; each runs 1-4 request/response
    // exchanges of 1-4 packets per burst, then a new one replaces it.
    void make_schedule(sim::Rng& rng, std::size_t timed_bursts)
    {
        constexpr std::size_t kActive = 512;
        constexpr std::size_t kWarmupBursts = 20000;
        static constexpr std::uint16_t kServerPorts[] = {53, 80, 443, 3306, 8080, 9000};
        struct Slot {
            std::uint32_t conn = 0;
            int exchanges = 0;
            bool reply = false;
        };
        auto open = [&] {
            const auto& [local, remote] = pairs_[rng.below(pairs_.size())];
            conns_.push_back({local, remote, client_port(rng),
                              kServerPorts[rng.below(std::size(kServerPorts))]});
            return Slot{static_cast<std::uint32_t>(conns_.size() - 1),
                        1 + static_cast<int>(rng.below(4)), false};
        };
        std::vector<Slot> slots;
        for (std::size_t i = 0; i < kActive; ++i) slots.push_back(open());
        auto emit = [&](Schedule& s) {
            Slot& slot = slots[rng.below(kActive)];
            const int n = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < n; ++i) {
                // Requests are mostly small, replies mostly large.
                const double u = rng.uniform();
                const Desc size = slot.reply ? (u < 0.2 ? 0 : u < 0.6 ? 1 : 2)
                                             : (u < 0.6 ? 0 : u < 0.9 ? 1 : 2);
                s.pkts.push_back(slot.conn << 3 | (slot.reply ? 4u : 0u) | size);
            }
            s.end_burst();
            if (slot.reply && --slot.exchanges == 0) {
                slot = open();
            } else {
                slot.reply = !slot.reply;
            }
        };
        for (std::size_t b = 0; b < kWarmupBursts; ++b) emit(warmup);
        for (std::size_t b = 0; b < timed_bursts; ++b) emit(timed);
    }

    // The eBPF datapath cannot recirculate or encapsulate, so its upcall
    // runs every ofproto pass in userspace and installs one exact-match
    // flow with what it can execute: the DFW's ct() plus the output, the
    // uplink standing in for the tunnel. The passes after ct() see the
    // state the leg's own tracker gives the packet at upcall time; the
    // flow then keeps that verdict for every later packet of its key.
    std::pair<kern::OdpActions, net::FlowMask> flatten(Leg& leg,
                                                      const net::FlowKey& key) const override
    {
        const std::uint32_t uplink_port = leg.port_no[kUplink];
        net::FlowKey k = key;
        if (key.in_port == uplink_port) {
            // Tunnel metadata the shim strips: sender's VNI and VTEP.
            for (const nsx::VmSpec& vm : spec_.vms) {
                if (!(vm.mac == key.dl_src)) continue;
                k.in_port = kShimTunnelPort;
                k.tun_id = vm.vni;
                k.tun_src = vm.remote_vtep;
                k.tun_dst = kLocalVtep;
                break;
            }
        }
        kern::OdpActions out;
        std::optional<kern::CtSpec> ct;
        for (int pass = 0; pass < 4; ++pass) {
            const ovs::XlateResult xr = leg.vswitch->ofproto().xlate(k);
            bool recirc = false;
            for (const kern::OdpAction& a : xr.actions) {
                using Type = kern::OdpAction::Type;
                switch (a.type) {
                case Type::Ct:
                    if (!ct) ct = a.ct;
                    ct->commit = ct->commit || a.ct.commit;
                    break;
                case Type::Recirc:
                    k.recirc_id = a.recirc_id;
                    recirc = true;
                    break;
                case Type::SetTunnel: break;
                case Type::Output:
                    out.push_back(kern::OdpAction::output(a.port == kShimTunnelPort ? uplink_port
                                                                                    : a.port));
                    break;
                default: out.push_back(a); break;
                }
            }
            if (!recirc) break;
            const std::uint16_t zone = ct ? ct->zone : 0;
            k.ct_zone = zone;
            k.ct_state = tracked_state(leg.kernel.conntrack(), k, zone);
        }
        kern::OdpActions actions;
        if (out.empty()) {
            actions.push_back(kern::OdpAction::drop());
        } else {
            if (ct) actions.push_back(kern::OdpAction::conntrack(*ct));
            actions.insert(actions.end(), out.begin(), out.end());
        }
        return std::pair{std::move(actions), ovs::DpifEbpf::required_mask()};
    }

    // The state bits kern::Conntrack::process would give `key` in `zone`
    // (no NAT, no zone limits here), read without touching the tracker.
    static std::uint8_t tracked_state(const kern::Conntrack& ct, const net::FlowKey& key,
                                      std::uint16_t zone)
    {
        const kern::CtTuple tuple = kern::CtTuple::from_key(key, zone);
        const kern::CtEntry* e = ct.find(tuple);
        std::uint8_t state = net::kCtStateTracked;
        if (!e) return state | net::kCtStateNew;
        if (tuple == e->reply && !(e->reply == e->orig)) state |= net::kCtStateReply;
        return state | (e->confirmed ? net::kCtStateEstablished : net::kCtStateNew);
    }

    nsx::NsxConfig spec_;
    std::vector<std::pair<std::uint8_t, std::uint8_t>> pairs_;
    std::vector<Conn> conns_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds)
{
    if (name == "p2p-1k") {
        return std::make_unique<P2pWorkload>(P2pWorkload::Params{"p2p-1k", false}, seed, seconds);
    }
    if (name == "p2p-100k-churn") {
        return std::make_unique<P2pWorkload>(P2pWorkload::Params{"p2p-100k-churn", true}, seed,
                                             seconds);
    }
    if (name == "nsx-conn") return std::make_unique<NsxWorkload>(seed, seconds);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench

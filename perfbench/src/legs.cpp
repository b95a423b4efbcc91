#include <stdexcept>
#include <tuple>

#include "gen/harness.h"
#include "ovs/dpif_kernel.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/netdev_dpdk.h"
#include "perfbench.h"

namespace perfbench {

const char* provider_name(Provider p)
{
    switch (p) {
    case Provider::Afxdp: return gen::to_string(gen::Datapath::Afxdp);
    case Provider::Dpdk: return gen::to_string(gen::Datapath::Dpdk);
    case Provider::Kernel: return gen::to_string(gen::Datapath::Kernel);
    case Provider::Ebpf: return gen::to_string(gen::Datapath::Ebpf);
    }
    return "?";
}

Output normalize(std::uint32_t port, const net::Packet& pkt)
{
    // Parsed by hand from the raw bytes rather than with the net module,
    // so the check does not share a parser with the code it checks.
    const std::uint8_t* b = pkt.data();
    const std::size_t n = pkt.size();
    Output out;
    out.port = port;
    auto be16 = [&](std::size_t off) { return static_cast<std::uint32_t>(b[off] << 8 | b[off + 1]); };
    auto be32 = [&](std::size_t off) { return be16(off) << 16 | be16(off + 2); };
    if (n >= 14 + 20 + 8 + 8 && be16(12) == 0x0800 && b[14 + 9] == 17) {
        const std::size_t ihl = static_cast<std::size_t>(b[14] & 0x0f) * 4;
        const std::size_t udp = 14 + ihl;
        const std::size_t gnv = udp + 8;
        if (ihl >= 20 && gnv + 8 <= n && be16(udp + 2) == 6081) {
            const std::size_t inner = gnv + 8 + static_cast<std::size_t>(b[gnv] & 0x3f) * 4;
            if (inner <= n) {
                const std::uint32_t vni = be32(gnv + 4) >> 8;
                out.tunnel = static_cast<std::uint64_t>(be32(14 + 16)) << 32 |
                             static_cast<std::uint64_t>(be32(14 + 12) & 0xff) << 24 | vni;
                out.bytes.assign(b + inner, b + n);
                return out;
            }
        }
    }
    out.bytes.assign(b, b + n);
    return out;
}

Leg::Leg(Provider p) : provider(p), kernel("host") {}

Leg::~Leg() = default;

void Leg::attach_datapath(const std::vector<bool>& dp_port, std::uint32_t tunnel_ip)
{
    port_no.assign(devs.size(), 0);
    std::unique_ptr<ovs::Dpif> dpif;
    switch (provider) {
    case Provider::Afxdp:
    case Provider::Dpdk: {
        auto d = std::make_unique<ovs::DpifNetdev>(kernel);
        netdev = d.get();
        if (provider == Provider::Dpdk) pool = std::make_unique<dpdk::Mempool>(4096, 2176);
        for (std::size_t i = 0; i < devs.size(); ++i) {
            if (!dp_port[i]) continue;
            if (provider == Provider::Afxdp) {
                port_no[i] = d->add_port(
                    std::make_unique<ovs::NetdevAfxdp>(*devs[i], ovs::AfxdpOptions::all()));
            } else {
                port_no[i] = d->add_port(std::make_unique<ovs::NetdevDpdk>(*devs[i], *pool));
            }
        }
        if (tunnel_ip) tunnel_port = d->add_tunnel_port("geneve0", net::TunnelType::Geneve, tunnel_ip);
        pmd = d->add_pmd("pmd0");
        for (std::size_t i = 0; i < devs.size(); ++i) {
            if (port_no[i]) d->pmd_assign(pmd, port_no[i], 0);
        }
        dpif = std::move(d);
        break;
    }
    case Provider::Kernel: {
        kdp = &kernel.ovs_datapath();
        for (std::size_t i = 0; i < devs.size(); ++i) {
            if (dp_port[i]) port_no[i] = kdp->add_port(*devs[i]);
        }
        if (tunnel_ip) {
            tunnel_port = kdp->add_tunnel_port("geneve0", net::TunnelType::Geneve, tunnel_ip);
        }
        dpif = std::make_unique<ovs::DpifKernel>(*kdp);
        break;
    }
    case Provider::Ebpf: {
        auto d = std::make_unique<ovs::DpifEbpf>(kernel);
        ebpf = d.get();
        for (std::size_t i = 0; i < devs.size(); ++i) {
            if (dp_port[i]) port_no[i] = d->add_port(*devs[i]);
        }
        dpif = std::move(d);
        break;
    }
    }
    vswitch = std::make_unique<ovs::VSwitch>(std::move(dpif));

    for (std::size_t i = 0; i < devs.size(); ++i) {
        const auto idx = static_cast<std::uint32_t>(i);
        devs[i]->connect_wire([this, idx](net::Packet&& p) { captured.emplace_back(idx, std::move(p)); });
    }

    // The benchmark's own upcall handler: ovs-vswitchd's translate,
    // install, execute — with a span around each call.
    vswitch->dpif().set_upcall_handler([this](std::uint32_t, net::Packet&& pkt,
                                              const net::FlowKey& key, sim::ExecContext& ctx) {
        ScopedSpan up(spans, SpanName::Upcall);
        ++upcalls;
        kern::OdpActions actions;
        net::FlowMask mask;
        {
            ScopedSpan s(spans, SpanName::Xlate);
            if (flattened) {
                std::tie(actions, mask) = flattened->flatten(*this, key);
            } else {
                ovs::XlateResult xr = vswitch->ofproto().xlate(key);
                if (xr.dropped && xr.actions.empty()) xr.actions.push_back(kern::OdpAction::drop());
                actions = std::move(xr.actions);
                // The eBPF map holds exact-match flows only.
                mask = provider == Provider::Ebpf ? ovs::DpifEbpf::required_mask() : xr.wildcards;
            }
        }
        ovs::Dpif& dpif = vswitch->dpif();
        {
            ScopedSpan s(spans, SpanName::FlowPut);
            dpif.flow_put(key, mask, actions);
        }
        ScopedSpan s(spans, SpanName::Execute);
        dpif.execute(std::move(pkt), actions, ctx);
    });
}

void Leg::set_now(sim::Nanos now)
{
    if (netdev) netdev->set_now(now);
    if (kdp) kdp->set_now(now);
    if (ebpf) ebpf->set_now(now);
}

std::pair<kern::OdpActions, net::FlowMask> Workload::flatten(Leg&, const net::FlowKey&) const
{
    throw std::logic_error(std::string(name()) + " has no flattened ruleset");
}

std::vector<const obs::PmdPerf*> Leg::perf_rows()
{
    std::vector<const obs::PmdPerf*> rows;
    if (netdev) {
        if (const obs::PmdPerf* perf = netdev->pmd_ctx(pmd).perf()) rows.push_back(perf);
    }
    for (auto* dev : devs) {
        for (std::uint32_t q = 0; q < dev->config().num_queues; ++q) {
            if (const obs::PmdPerf* perf = dev->softirq_ctx(q).perf()) rows.push_back(perf);
        }
    }
    return rows;
}

} // namespace perfbench

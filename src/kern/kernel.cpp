#include "kern/kernel.h"

#include <stdexcept>

#include "kern/ovs_kmod.h"
#include "kern/stack.h"
#include "obs/coverage.h"

namespace ovsx::kern {

const char* to_string(XdpVerdict v)
{
    switch (v) {
    case XdpVerdict::NoProgram: return "no-program";
    case XdpVerdict::Drop: return "drop";
    case XdpVerdict::PassToStack: return "pass";
    case XdpVerdict::Tx: return "tx";
    case XdpVerdict::RedirectedXsk: return "redirect-xsk";
    case XdpVerdict::RedirectedDev: return "redirect-dev";
    case XdpVerdict::Aborted: return "aborted";
    }
    return "?";
}

Kernel::Kernel(std::string hostname, const sim::CostModel& costs)
    : hostname_(std::move(hostname)), costs_(costs), conntrack_(costs), vm_(costs)
{
    namespaces_.push_back("root");
    stacks_.push_back(std::make_unique<IpStack>(*this, 0));
}

Kernel::~Kernel() = default;

void Kernel::register_device(std::unique_ptr<Device> dev)
{
    dev->ifindex_ = static_cast<int>(devices_.size()) + 1;
    devices_.push_back(std::move(dev));
}

Device* Kernel::device(int ifindex)
{
    const auto idx = static_cast<std::size_t>(ifindex) - 1;
    if (ifindex < 1 || idx >= devices_.size()) return nullptr;
    return devices_[idx].get();
}

Device* Kernel::device(const std::string& name)
{
    for (const auto& d : devices_) {
        if (d->name() == name) return d.get();
    }
    return nullptr;
}

std::vector<Device*> Kernel::devices()
{
    std::vector<Device*> out;
    out.reserve(devices_.size());
    for (const auto& d : devices_) out.push_back(d.get());
    return out;
}

int Kernel::create_namespace(const std::string& name)
{
    namespaces_.push_back(name);
    const int ns_id = static_cast<int>(namespaces_.size()) - 1;
    stacks_.push_back(std::make_unique<IpStack>(*this, ns_id));
    return ns_id;
}

IpStack& Kernel::stack(int ns_id)
{
    const auto idx = static_cast<std::size_t>(ns_id);
    if (ns_id < 0 || idx >= stacks_.size()) {
        throw std::out_of_range("Kernel::stack: bad namespace");
    }
    return *stacks_[idx];
}

int Kernel::namespace_count() const { return static_cast<int>(namespaces_.size()); }

void Kernel::bind_xsk(ebpf::Map* map, std::uint32_t key, afxdp::XskSocket* sock)
{
    xsk_registry_[{map, key}] = sock;
    // Mark the slot occupied so bpf_redirect_map() sees a target.
    map->update_kv(key, std::uint32_t{1});
}

void Kernel::unbind_xsk(ebpf::Map* map, std::uint32_t key)
{
    xsk_registry_.erase({map, key});
    map->update_kv(key, std::uint32_t{0});
}

afxdp::XskSocket* Kernel::xsk_for(ebpf::Map* map, std::uint32_t key)
{
    auto it = xsk_registry_.find({map, key});
    return it == xsk_registry_.end() ? nullptr : it->second;
}

XdpVerdict Kernel::run_xdp(const ebpf::Image& prog, net::Packet& pkt, Device& dev,
                           std::uint32_t queue, sim::ExecContext& ctx)
{
    ctx.charge(costs_.xdp_setup);
    auto res = vm_.run_xdp(prog, pkt, static_cast<std::uint32_t>(dev.ifindex()), queue);
    ctx.charge(res.cost);
    pkt.meta().latency_ns += costs_.xdp_setup + res.cost;
    if (res.touched_packet) {
        // First touch of a cold packet line (Table 5 task B effect).
        ctx.charge(costs_.cache_miss);
        pkt.meta().latency_ns += costs_.cache_miss;
    }
    OVSX_COVERAGE_CTX(ctx, "xdp.run");

    switch (res.action) {
    case ebpf::XdpAction::Aborted:
        OVSX_COVERAGE_CTX(ctx, "xdp.aborted");
        return XdpVerdict::Aborted;
    case ebpf::XdpAction::Drop:
        return XdpVerdict::Drop;
    case ebpf::XdpAction::Pass:
        return XdpVerdict::PassToStack;
    case ebpf::XdpAction::Tx:
        return XdpVerdict::Tx;
    case ebpf::XdpAction::Redirect: {
        if (!res.redirect_map) return XdpVerdict::Aborted;
        ctx.charge(costs_.xdp_redirect);
        pkt.meta().latency_ns += costs_.xdp_redirect;
        if (res.redirect_map->type() == ebpf::MapType::XskMap) {
            afxdp::XskSocket* sock = xsk_for(res.redirect_map, res.redirect_key);
            if (!sock) return XdpVerdict::Drop;
            sock->kernel_deliver(pkt, costs_, ctx);
            return XdpVerdict::RedirectedXsk;
        }
        if (res.redirect_map->type() == ebpf::MapType::DevMap) {
            const auto target = res.redirect_map->lookup_kv<std::uint32_t>(res.redirect_key);
            if (!target || *target == 0) return XdpVerdict::Drop;
            Device* out = device(static_cast<int>(*target));
            if (!out) return XdpVerdict::Drop;
            out->transmit(std::move(pkt), ctx);
            return XdpVerdict::RedirectedDev;
        }
        return XdpVerdict::Aborted;
    }
    }
    return XdpVerdict::Aborted;
}

OvsKernelDatapath& Kernel::ovs_datapath()
{
    if (!ovs_) ovs_ = std::make_unique<OvsKernelDatapath>(*this);
    return *ovs_;
}

} // namespace ovsx::kern

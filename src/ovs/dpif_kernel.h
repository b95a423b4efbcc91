// dpif-kernel: the traditional split design — the datapath lives in the
// kernel module (kern/ovs_kmod.h); ovs-vswitchd only sees upcalls and
// installs flows over the (simulated) openvswitch netlink channel.
#pragma once

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "ovs/dpif.h"

namespace ovsx::ovs {

class DpifKernel : public Dpif {
public:
    explicit DpifKernel(kern::OvsKernelDatapath& dp) : dp_(dp) {}

    const char* type() const override { return "system"; }

    // Both handler types are the same std::function, so an empty
    // handler stays empty and misses count as lost.
    void set_upcall_handler(UpcallHandler handler) override
    {
        dp_.set_upcall_handler(std::move(handler));
    }

    void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                  kern::OdpActions actions) override
    {
        dp_.flow_put(key, mask, std::move(actions));
    }

    void flow_flush() override { dp_.flow_flush(); }
    std::size_t flow_count() const override { return dp_.flow_count(); }
    std::vector<kern::OdpFlowEntry> flow_dump() const override { return dp_.flow_dump(); }
    void san_check(san::Site site) const override { dp_.san_check(site); }

    void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                 sim::ExecContext& ctx) override
    {
        dp_.execute(std::move(pkt), actions, ctx);
    }

    Stats stats() const override { return {dp_.hits(), dp_.misses(), dp_.lost()}; }
    std::vector<kern::CtSnapshotEntry> ct_snapshot() const override
    {
        return dp_.kernel().conntrack().snapshot();
    }
    // One row per queue of each device-backed port's NIC.
    std::vector<const obs::PmdPerf*> perfs() const override
    {
        std::vector<kern::Device*> devices;
        for (const kern::Vport* vport : dp_.ports()) devices.push_back(vport->dev);
        return kern::softirq_perfs(devices);
    }

    kern::OvsKernelDatapath& datapath() { return dp_; }

private:
    kern::OvsKernelDatapath& dp_;
};

} // namespace ovsx::ovs

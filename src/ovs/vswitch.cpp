#include "ovs/vswitch.h"

#include "ovs/dpif_appctl.h"

namespace ovsx::ovs {

VSwitch::VSwitch(std::unique_ptr<Dpif> dpif) : dpif_(std::move(dpif))
{
    dpif_->set_upcall_handler([this](std::uint32_t in_port, net::Packet&& pkt,
                                     const net::FlowKey& key, sim::ExecContext& ctx) {
        handle_upcall(in_port, std::move(pkt), key, ctx);
    });
    register_dpif_commands(appctl_, *dpif_);
}

void VSwitch::handle_upcall(std::uint32_t in_port, net::Packet&& pkt, const net::FlowKey& key,
                            sim::ExecContext& ctx)
{
    (void)in_port;
    ++upcalls_;
    XlateResult xr = ofproto_.xlate(key);
    kern::OdpActions actions = std::move(xr.actions);
    if (xr.dropped && actions.empty()) {
        actions.push_back(kern::OdpAction::drop());
    }
    // Install the megaflow so later packets take the fast path, then
    // send this packet on its way with the same actions.
    dpif_->flow_put(key, xr.wildcards, actions);
    ++installs_;
    dpif_->execute(std::move(pkt), actions, ctx);
}

} // namespace ovsx::ovs

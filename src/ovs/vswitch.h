// VSwitch: ovs-vswitchd in miniature — wires an ofproto pipeline to a
// datapath provider: on upcall, translate, install the megaflow, and
// re-inject the packet.
#pragma once

#include <memory>

#include "obs/appctl.h"
#include "ovs/dpif.h"
#include "ovs/ofproto.h"

namespace ovsx::ovs {

class VSwitch {
public:
    // Takes ownership of the datapath provider.
    explicit VSwitch(std::unique_ptr<Dpif> dpif);

    Ofproto& ofproto() { return ofproto_; }
    Dpif& dpif() { return *dpif_; }
    template <typename T> T& dpif_as() { return dynamic_cast<T&>(*dpif_); }

    // The ovs-appctl surface: the global commands (coverage/show,
    // memory/show, ...) plus the eight provider commands
    // (ovs/dpif_appctl.h).
    obs::Appctl& appctl() { return appctl_; }

    std::uint64_t upcalls_handled() const { return upcalls_; }
    std::uint64_t flows_installed() const { return installs_; }

private:
    void handle_upcall(std::uint32_t in_port, net::Packet&& pkt, const net::FlowKey& key,
                       sim::ExecContext& ctx);

    Ofproto ofproto_;
    std::unique_ptr<Dpif> dpif_;
    obs::Appctl appctl_;
    std::uint64_t upcalls_ = 0;
    std::uint64_t installs_ = 0;
};

} // namespace ovsx::ovs

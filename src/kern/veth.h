// Veth pairs: the kernel's virtual Ethernet cable between namespaces.
// Transmitting on one end is an in-kernel function call into the peer's
// receive path — no data copy, which is why the paper's §3.4 finds
// in-kernel container networking hard to beat.
#pragma once

#include <optional>

#include "ebpf/vm.h"
#include "kern/device.h"

namespace ovsx::kern {

class VethDevice : public Device {
public:
    VethDevice(Kernel& kernel, std::string name, net::MacAddr mac);

    // Creates both ends and links them. Returns {host_end, peer_end}.
    static std::pair<VethDevice*, VethDevice*> create_pair(Kernel& kernel,
                                                           const std::string& name_a,
                                                           const std::string& name_b,
                                                           int ns_a = 0, int ns_b = 0);

    VethDevice* peer() { return peer_; }

    // XDP on veth (native veth XDP, used by the container bypass path).
    void attach_xdp(ebpf::Image image) { prog_ = std::move(image); }
    void attach_xdp(const ebpf::Program& prog) { prog_ = ebpf::load(prog); }
    void detach_xdp() { prog_.reset(); }

    // Egress: hand the frame to the peer's ingress.
    void transmit(net::Packet&& pkt, sim::ExecContext& ctx) override;

    // Ingress on this end (called by the peer, XDP redirect, or tests).
    void receive(net::Packet&& pkt, sim::ExecContext& ctx);

private:
    VethDevice* peer_ = nullptr;
    std::optional<ebpf::Image> prog_;
};

} // namespace ovsx::kern

// The simulated Linux kernel instance: device registry, network
// namespaces with IP stacks, XDP dispatch, AF_XDP socket registry, and
// the connection-tracking subsystem. One Kernel == one OS instance (a
// hypervisor host or a VM guest).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "afxdp/xsk.h"
#include "ebpf/program.h"
#include "ebpf/vm.h"
#include "kern/conntrack.h"
#include "kern/device.h"
#include "sim/costs.h"

namespace ovsx::kern {

class IpStack;
class OvsKernelDatapath;

// Outcome of running an XDP program on ingress; the driver decides what
// to do with the packet based on this.
enum class XdpVerdict {
    NoProgram, // nothing attached: continue into the stack
    Drop,
    PassToStack,
    Tx,            // bounce back out the same device
    RedirectedXsk, // consumed: delivered to an AF_XDP socket
    RedirectedDev, // consumed: transmitted out of another device
    Aborted,
};

const char* to_string(XdpVerdict v);

class Kernel {
public:
    explicit Kernel(std::string hostname = "host",
                    const sim::CostModel& costs = sim::CostModel::baseline());
    ~Kernel();

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    const std::string& hostname() const { return hostname_; }
    const sim::CostModel& costs() const { return costs_; }

    // ---- devices -----------------------------------------------------------
    // Registers a device, assigning its ifindex. The kernel owns devices.
    template <typename T, typename... Args> T& add_device(Args&&... args)
    {
        auto dev = std::make_unique<T>(*this, std::forward<Args>(args)...);
        T& ref = *dev;
        register_device(std::move(dev));
        return ref;
    }
    Device* device(int ifindex);
    Device* device(const std::string& name);
    std::vector<Device*> devices();

    // ---- namespaces -----------------------------------------------------------
    // Namespace 0 (the root) always exists.
    int create_namespace(const std::string& name);
    IpStack& stack(int ns_id = 0);
    int namespace_count() const;

    // ---- AF_XDP socket registry -------------------------------------------------
    // Associates (xskmap, key) with a bound socket; the XDP redirect path
    // resolves through this, like the kernel's xskmap internals.
    void bind_xsk(ebpf::Map* map, std::uint32_t key, afxdp::XskSocket* sock);
    void unbind_xsk(ebpf::Map* map, std::uint32_t key);
    afxdp::XskSocket* xsk_for(ebpf::Map* map, std::uint32_t key);

    // ---- XDP dispatch ------------------------------------------------------------
    // Runs the loaded `prog` over `pkt` arriving on (dev, queue),
    // handling redirect resolution. On RedirectedXsk/RedirectedDev the
    // packet has been consumed. Charges `ctx` (softirq) for program
    // execution.
    XdpVerdict run_xdp(const ebpf::Image& prog, net::Packet& pkt, Device& dev,
                       std::uint32_t queue, sim::ExecContext& ctx);

    // ---- subsystems ----------------------------------------------------------------
    Conntrack& conntrack() { return conntrack_; }
    ebpf::Vm& vm() { return vm_; }

    // The in-kernel OVS datapath module (created on first use — i.e.
    // "modprobe openvswitch").
    OvsKernelDatapath& ovs_datapath();
    bool ovs_loaded() const { return ovs_ != nullptr; }

private:
    void register_device(std::unique_ptr<Device> dev);

    std::string hostname_;
    const sim::CostModel& costs_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::vector<std::string> namespaces_;
    std::vector<std::unique_ptr<IpStack>> stacks_;
    std::map<std::pair<ebpf::Map*, std::uint32_t>, afxdp::XskSocket*> xsk_registry_;
    Conntrack conntrack_;
    ebpf::Vm vm_;
    std::unique_ptr<OvsKernelDatapath> ovs_;
};

} // namespace ovsx::kern

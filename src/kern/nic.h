// Physical NIC model: multi-queue RX with RSS and ntuple steering,
// hardware offloads (checksum, TSO), XDP attach points (whole-device
// like Intel, per-queue like Mellanox — Figure 6), AF_XDP TX kicks, and
// a DPDK takeover hook that detaches the device from the kernel.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "afxdp/xsk.h"
#include "ebpf/vm.h"
#include "kern/device.h"
#include "net/flow.h"

namespace ovsx::kern {

struct NicConfig {
    double gbps = 10.0;
    std::uint32_t num_queues = 1;
    bool rx_csum = true;  // hardware RX checksum validation
    bool tx_csum = true;  // hardware TX checksum insertion
    bool tso = true;      // TCP segmentation offload
    bool rss = true;      // receive-side scaling
    // Figure 6: Intel attaches one XDP program per device; Mellanox
    // attaches per receive queue.
    enum class XdpModel { PerDevice, PerQueue } xdp_model = XdpModel::PerDevice;
    bool zerocopy_afxdp = true; // false -> AF_XDP copy ("SKB") fallback mode
};

// Hardware flow steering rule (ethtool --config-ntuple).
struct NtupleRule {
    std::uint8_t proto = 0;     // 0 = any
    std::uint16_t dst_port = 0; // 0 = any
    std::uint32_t dst_ip = 0;   // 0 = any
    std::uint32_t queue = 0;
};

class PhysicalDevice : public Device {
public:
    using WireTx = std::function<void(net::Packet&&)>;
    // DPDK PMD rx hook: (packet, queue).
    using DpdkRx = std::function<void(net::Packet&&, std::uint32_t)>;

    PhysicalDevice(Kernel& kernel, std::string name, net::MacAddr mac, NicConfig cfg = {});

    const NicConfig& config() const { return cfg_; }
    void set_config(const NicConfig& cfg);

    // ---- wire ------------------------------------------------------------
    void connect_wire(WireTx wire) { wire_ = std::move(wire); }

    // A frame arrives from the wire. `forced_queue` overrides steering
    // (used by tests).
    void rx_from_wire(net::Packet&& pkt, std::optional<std::uint32_t> forced_queue = {});

    // ---- steering -----------------------------------------------------------
    void add_ntuple_rule(const NtupleRule& rule) { ntuple_.push_back(rule); }
    void clear_ntuple_rules() { ntuple_.clear(); }
    std::uint32_t select_queue(const net::Packet& pkt) const;

    // ---- XDP ------------------------------------------------------------------
    // queue < 0 attaches to the whole device (required for PerDevice
    // NICs, meaning "all queues"); queue >= 0 attaches to one queue
    // (PerQueue NICs only). Throws on a model violation. The Program
    // overload loads it first (see ebpf::load).
    void attach_xdp(ebpf::Image image, int queue = -1);
    void attach_xdp(const ebpf::Program& prog, int queue = -1)
    {
        attach_xdp(ebpf::load(prog), queue);
    }
    void detach_xdp(int queue = -1);
    const ebpf::Image* xdp_program(std::uint32_t queue) const;

    // ---- NAPI mode ----------------------------------------------------------------
    // Interrupt mode charges IRQ + wakeup overheads (the slow second bar
    // of Fig. 8a); busy polling — what PMD threads induce — does not.
    void set_interrupt_mode(bool on) { interrupt_mode_ = on; }
    bool interrupt_mode() const { return interrupt_mode_; }

    // ---- AF_XDP TX -------------------------------------------------------------------
    // Userspace kicked the socket (sendto): drains its TX ring out the
    // wire. The syscall is charged to `user_ctx` as system time; driver
    // work lands in this queue's softirq context. Returns frames sent.
    std::uint32_t xsk_tx_kick(afxdp::XskSocket& sock, std::uint32_t queue,
                              sim::ExecContext& user_ctx);

    // ---- DPDK takeover ----------------------------------------------------------------
    // Unbinds the device from the kernel: XDP, the stack and the kernel
    // tools all stop seeing it; frames go straight to the PMD.
    void dpdk_take_over(DpdkRx rx);
    void dpdk_release();

    // Egress from the kernel stack / datapaths.
    void transmit(net::Packet&& pkt, sim::ExecContext& ctx) override;

    // Direct hardware TX used by the DPDK PMD (no kernel context at all).
    void hw_transmit(net::Packet&& pkt);

    sim::ExecContext& softirq_ctx(std::uint32_t queue) { return softirq_[queue]; }
    std::uint64_t xdp_drops() const { return xdp_drops_; }

private:
    std::uint32_t select_queue(const net::FlowKey& key) const;
    void tx_offloads(net::Packet& pkt, sim::ExecContext& ctx, bool charge_sw);
    void to_wire(net::Packet&& pkt);

    NicConfig cfg_;
    WireTx wire_;
    DpdkRx dpdk_rx_;
    std::vector<NtupleRule> ntuple_;
    std::vector<sim::ExecContext> softirq_;
    std::optional<ebpf::Image> dev_prog_;
    std::vector<std::optional<ebpf::Image>> queue_progs_;
    bool interrupt_mode_ = false;
    std::uint64_t xdp_drops_ = 0;
    std::uint64_t irq_count_ = 0;

    static constexpr std::uint32_t kIrqBatch = 8; // NAPI amortisation
};

// The profilers of the NIC softirq contexts behind `devices`, one per
// queue of each physical device in order (other devices and nulls have
// none). The kernel module and the eBPF TC hook classify packets in
// these contexts, the softirq analogue of a PMD thread.
std::vector<const obs::PmdPerf*> softirq_perfs(const std::vector<Device*>& devices);

} // namespace ovsx::kern

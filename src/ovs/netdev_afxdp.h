// netdev-afxdp: the paper's primary contribution. OVS's own AF_XDP
// driver — per-queue umem + XSK sockets, a umempool buffer manager, an
// auto-loaded XDP redirect program, and the §3.2 optimisation ladder as
// explicit toggles:
//
//   O1  pmd_mode          dedicated PMD polling vs. general-purpose thread
//   O2  lock              spinlock vs. pthread mutex around umem access
//   O3  lock_batching     one umempool lock round per batch vs. per packet
//   O4  metadata_prealloc preallocated dp_packet array vs. mmap per packet
//   O5  csum_offload      assume RX checksums valid / fixed TX checksum
#pragma once

#include <memory>
#include <vector>

#include "afxdp/umem.h"
#include "afxdp/xsk.h"
#include "ebpf/map.h"
#include "kern/nic.h"
#include "ovs/netdev.h"
#include "sync/annotations.h"

namespace ovsx::ovs {

struct AfxdpOptions {
    bool pmd_mode = true;          // O1
    enum class Lock { Mutex, Spinlock } lock = Lock::Spinlock; // O2
    bool lock_batching = true;     // O3
    bool metadata_prealloc = true; // O4
    bool csum_offload = false;     // O5 (estimated offload, off by default)
    afxdp::BindMode bind_mode = afxdp::BindMode::ZeroCopy;
    std::uint32_t umem_frames = 4096;

    static AfxdpOptions none()
    {
        // The "no optimisations" row of Table 2.
        AfxdpOptions o;
        o.pmd_mode = false;
        o.lock = Lock::Mutex;
        o.lock_batching = false;
        o.metadata_prealloc = false;
        o.csum_offload = false;
        return o;
    }
    static AfxdpOptions all()
    {
        AfxdpOptions o;
        o.csum_offload = true;
        return o;
    }
};

class NetdevAfxdp : public Netdev {
public:
    // Attaches to `nic`: creates one umem+XSK per NIC queue, loads the
    // xdp_redirect_to_xsk program onto the device, and registers the
    // sockets with the kernel's xskmap.
    NetdevAfxdp(kern::PhysicalDevice& nic, AfxdpOptions options = {});
    ~NetdevAfxdp() override;

    const char* type() const override { return "afxdp"; }
    std::uint32_t n_rxq() const override { return nic_.config().num_queues; }

    OVSX_NO_ALLOC std::uint32_t rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                                         std::uint32_t max,
                                         sim::ExecContext& ctx) override;
    OVSX_NO_ALLOC void tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                                sim::ExecContext& ctx) override;

    const AfxdpOptions& options() const { return options_; }
    kern::PhysicalDevice& nic() { return nic_; }
    afxdp::XskSocket& xsk(std::uint32_t queue) { return *queues_[queue].xsk; }

    // Replaces the default redirect program with a custom one (the §3.5
    // extension point: LB, container bypass, steering...). The program
    // must redirect AF_XDP traffic into `xsk_map()`.
    void load_custom_xdp(const ebpf::Program& prog);
    const ebpf::MapPtr& xsk_map() const { return xsk_map_; }

private:
    struct QueueState {
        std::unique_ptr<afxdp::Umem> umem;
        std::unique_ptr<afxdp::XskSocket> xsk;
        std::vector<afxdp::FrameAddr> free_frames; // umempool free list
    };

    // Charges one umempool lock acquisition per the configured kind.
    void charge_lock(sim::ExecContext& ctx) const;
    void refill(QueueState& q, std::uint32_t count, sim::ExecContext& ctx);

    kern::PhysicalDevice& nic_;
    AfxdpOptions options_;
    std::vector<QueueState> queues_;
    ebpf::MapPtr xsk_map_;
};

} // namespace ovsx::ovs

// XSK: the AF_XDP socket itself — an rx and a tx descriptor ring over a
// umem, bound to one (device, queue) pair.
//
// The kernel side (our kern::PhysicalDevice) delivers frames by popping
// the fill ring, writing packet bytes into the chunk, and pushing an
// RxDesc; it collects transmissions by popping the tx ring and pushing
// completions. The userspace side is driven by OVS's netdev-afxdp.
#pragma once

#include <cstdint>
#include <string>

#include "afxdp/ring.h"
#include "afxdp/umem.h"
#include "net/packet.h"
#include "sim/context.h"
#include "sim/costs.h"
#include "sync/annotations.h"

namespace ovsx::afxdp {

struct XdpDesc {
    FrameAddr addr = 0;
    std::uint32_t len = 0;
    std::uint32_t options = 0;
    // Stands in for the XDP rx-metadata area (hardware rx timestamps):
    // the frame bytes in umem are raw, so the accumulated packet
    // latency crosses the socket in the descriptor, like the trace id.
    std::int64_t latency_ns = 0;
};

// Copy mode (XDP_SKB / generic) pays a kernel-side copy per packet;
// zero-copy (XDP_DRV + ZC) lets the NIC DMA straight into umem. §3.2 and
// the "fallback mode" limitation in §3.5.
enum class BindMode { ZeroCopy, Copy };

class XskSocket {
public:
    XskSocket(Umem& umem, std::uint32_t ring_capacity = 2048, BindMode mode = BindMode::ZeroCopy)
        : umem_(umem), rx_(ring_capacity), tx_(ring_capacity), mode_(mode)
    {
    }

    Umem& umem() { return umem_; }
    BindMode mode() const { return mode_; }
    void set_bound(std::string dev, std::uint32_t queue)
    {
        bound_dev_ = std::move(dev);
        bound_queue_ = queue;
    }
    const std::string& bound_dev() const { return bound_dev_; }
    std::uint32_t bound_queue() const { return bound_queue_; }

    SpscRing<XdpDesc>& rx() { return rx_; }
    SpscRing<XdpDesc>& tx() { return tx_; }

    // ---- kernel-side operations ------------------------------------------

    // Delivers a received packet into the socket: pops a fill-ring frame,
    // writes the bytes, pushes an rx descriptor. Charges `softirq` for
    // ring work (and the data copy when in Copy mode). Returns false — a
    // drop — when no fill frame or rx slot is available (userspace is too
    // slow), which is exactly the lossless-rate limit the paper measures.
    OVSX_NO_ALLOC bool kernel_deliver(const net::Packet& pkt, const sim::CostModel& costs,
                                      sim::ExecContext& softirq);

    // Collects one packet from the tx ring (if any), pushing its frame
    // to the completion ring. Returns the reconstructed packet.
    OVSX_NO_ALLOC std::optional<net::Packet>
    kernel_collect_tx(const sim::CostModel& costs, sim::ExecContext& softirq);

    // ---- statistics ---------------------------------------------------------
    std::uint64_t rx_delivered = 0;
    std::uint64_t rx_dropped_no_frame = 0; // fill ring empty
    std::uint64_t rx_dropped_ring_full = 0;
    std::uint64_t tx_completed = 0;

private:
    Umem& umem_;
    SpscRing<XdpDesc> rx_;
    SpscRing<XdpDesc> tx_;
    BindMode mode_;
    std::string bound_dev_;
    std::uint32_t bound_queue_ = 0;
};

} // namespace ovsx::afxdp

#include "afxdp/xsk.h"

#include <cstring>

#include "obs/coverage.h"
#include "obs/trace.h"
#include "san/frame_tracker.h"

namespace ovsx::afxdp {

bool XskSocket::kernel_deliver(const net::Packet& pkt, const sim::CostModel& costs,
                               sim::ExecContext& softirq)
{
    const auto fill = umem_.fill().consume();
    softirq.charge(costs.xsk_ring_op);
    OVSX_COVERAGE_CTX(softirq, "xsk.fill_consume");
    if (!fill) {
        ++rx_dropped_no_frame;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::XskRx, pkt.meta().latency_ns,
                       "no-frame");
        }
        return false;
    }
    // The next delivery writes the frame behind this one, which was
    // posted a whole fill ring ago and is cold by now: fetch it while
    // this packet is handled, as DDIO puts a real NIC's DMA in cache.
    if (const auto next = umem_.fill().peek()) umem_.prefetch_for_write(*next);
    san::frame_transition(umem_.san_scope(), *fill, san::FrameState::KernelRx, OVSX_SITE);
    auto dst = umem_.frame(*fill);
    const std::size_t len = pkt.size() < dst.size() ? pkt.size() : dst.size();
    std::memcpy(dst.data(), pkt.data(), len);
    if (mode_ == BindMode::Copy) {
        // Generic/SKB mode: the kernel copies the frame on the CPU.
        softirq.charge(costs.copy(static_cast<std::int64_t>(len)));
    }
    // Zero-copy: the NIC DMA'd straight into umem; no CPU byte cost.

    // The frame is raw bytes; the trace id rides in the descriptor's
    // options word so NetdevAfxdp::rx_burst can restore it.
    XdpDesc desc{*fill, static_cast<std::uint32_t>(len), pkt.meta().trace_id,
                 pkt.meta().latency_ns};
    softirq.charge(costs.xsk_ring_op);
    OVSX_COVERAGE_CTX(softirq, "xsk.rx_produce");
    if (!rx_.produce(desc)) {
        ++rx_dropped_ring_full;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::XskRx, pkt.meta().latency_ns,
                       "ring-full");
        }
        // Frame is lost to the fill ring until userspace replenishes;
        // give it back immediately to keep the model conservative.
        san::frame_transition(umem_.san_scope(), *fill, san::FrameState::FillRing,
                              OVSX_SITE);
        umem_.fill().produce(*fill);
        return false;
    }
    san::frame_transition(umem_.san_scope(), *fill, san::FrameState::RxRing, OVSX_SITE);
    ++rx_delivered;
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::XskRx, pkt.meta().latency_ns,
                   "delivered", *fill);
    }
    return true;
}

std::optional<net::Packet> XskSocket::kernel_collect_tx(const sim::CostModel& costs,
                                                        sim::ExecContext& softirq)
{
    const auto desc = tx_.consume();
    softirq.charge(costs.xsk_ring_op);
    if (!desc) return std::nullopt;
    auto src = umem_.frame(desc->addr);
    net::Packet pkt = net::Packet::from_bytes(src.subspan(0, desc->len));
    pkt.meta().trace_id = desc->options;
    pkt.meta().latency_ns = desc->latency_ns;
    if (mode_ == BindMode::Copy) {
        softirq.charge(costs.copy(desc->len));
    }
    softirq.charge(costs.xsk_ring_op);
    san::frame_transition(umem_.san_scope(), desc->addr, san::FrameState::CompRing,
                          OVSX_SITE);
    umem_.comp().produce(desc->addr);
    ++tx_completed;
    return pkt;
}

} // namespace ovsx::afxdp

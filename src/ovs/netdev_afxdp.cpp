#include "ovs/netdev_afxdp.h"

#include <algorithm>
#include <cstring>

#include "ebpf/programs.h"
#include "kern/kernel.h"
#include "net/builder.h"
#include "net/hash.h"
#include "net/headers.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "san/audit.h"
#include "san/frame_tracker.h"
#include "san/packet_ledger.h"

namespace ovsx::ovs {

NetdevAfxdp::NetdevAfxdp(kern::PhysicalDevice& nic, AfxdpOptions options)
    : Netdev(nic.name()), nic_(nic), options_(options)
{
    const std::uint32_t nq = nic_.config().num_queues;
    xsk_map_ = std::make_shared<ebpf::Map>(ebpf::MapType::XskMap, nic_.name() + "_xsks_map", 4, 4,
                                           std::max<std::uint32_t>(nq, 4));

    const afxdp::BindMode mode =
        nic_.config().zerocopy_afxdp ? options_.bind_mode : afxdp::BindMode::Copy;
    queues_.resize(nq);
    for (std::uint32_t q = 0; q < nq; ++q) {
        QueueState& qs = queues_[q];
        qs.umem = std::make_unique<afxdp::Umem>(options_.umem_frames);
        qs.xsk = std::make_unique<afxdp::XskSocket>(*qs.umem, 2048, mode);
        qs.xsk->set_bound(nic_.name(), q);
        // Half the frames start on the fill ring for RX; the rest form
        // the umempool's free list for TX and refill.
        const std::uint32_t half = options_.umem_frames / 2;
        qs.free_frames.reserve(options_.umem_frames);
        for (std::uint32_t i = 0; i < options_.umem_frames; ++i) {
            const afxdp::FrameAddr addr =
                static_cast<afxdp::FrameAddr>(i) * qs.umem->chunk_size();
            if (i < half) {
                san::frame_register(qs.umem->san_scope(), addr,
                                    san::FrameState::FillRing, OVSX_SITE);
                qs.umem->fill().produce(addr);
            } else {
                san::frame_register(qs.umem->san_scope(), addr,
                                    san::FrameState::UserPool, OVSX_SITE);
                qs.free_frames.push_back(addr);
            }
        }
        nic_.kernel().bind_xsk(xsk_map_.get(), q, qs.xsk.get());
    }
    san::ref_inc(0, "netdev.ref", nic_.ifindex(), OVSX_SITE);

    // The trivial hook program of §2.2.3: redirect everything here. OVS
    // verifies what it loads, like the in-kernel verifier would.
    ebpf::Image image = ebpf::load(ebpf::xdp_redirect_to_xsk(xsk_map_));
    if (!image.verified()) {
        throw std::runtime_error("netdev-afxdp: XDP program rejected: " +
                                 image.verdict().error);
    }
    nic_.attach_xdp(std::move(image));
}

NetdevAfxdp::~NetdevAfxdp()
{
    nic_.detach_xdp(-1);
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        nic_.kernel().unbind_xsk(xsk_map_.get(), q);
        // Nothing may still be in flight inside the kernel: frames on
        // the fill or rx rings are fine (they belong to this umem and
        // die with it), frames mid-rx or on the tx ring are leaks.
        san::frame_expect_quiesced(queues_[q].umem->san_scope(), OVSX_SITE);
        san::frame_release_scope(queues_[q].umem->san_scope());
    }
    san::ref_dec(0, "netdev.ref", nic_.ifindex(), OVSX_SITE);
}

void NetdevAfxdp::load_custom_xdp(const ebpf::Program& prog)
{
    ebpf::Image image = ebpf::load(prog);
    if (!image.verified()) {
        throw std::runtime_error("netdev-afxdp: custom XDP program rejected: " +
                                 image.verdict().error);
    }
    nic_.detach_xdp(-1);
    nic_.attach_xdp(std::move(image));
}

void NetdevAfxdp::charge_lock(sim::ExecContext& ctx) const
{
    const auto& costs = nic_.kernel().costs();
    ctx.charge(options_.lock == AfxdpOptions::Lock::Mutex ? costs.mutex_lock_pair
                                                          : costs.spin_lock_pair);
    // Any thread may send into any umem region (§3.2 O2), so with more
    // PMD threads the umempool locks contend — part of why Fig. 12's
    // AF_XDP curve flattens while DPDK's keeps scaling.
    const std::uint32_t nq = nic_.config().num_queues;
    if (nq > 1) {
        ctx.charge(costs.spin_contended_extra * static_cast<sim::Nanos>(nq - 1));
    }
    OVSX_COVERAGE_CTX(ctx, "umempool.lock");
}

void NetdevAfxdp::refill(QueueState& q, std::uint32_t count, sim::ExecContext& ctx)
{
    const auto& costs = nic_.kernel().costs();
    for (std::uint32_t i = 0; i < count && !q.free_frames.empty(); ++i) {
        if (!options_.lock_batching) charge_lock(ctx); // per-frame locking (pre-O3)
        san::frame_transition(q.umem->san_scope(), q.free_frames.back(),
                              san::FrameState::FillRing, OVSX_SITE);
        q.umem->fill().produce(q.free_frames.back());
        q.free_frames.pop_back();
        ctx.charge(costs.xsk_ring_op);
    }
    if (options_.lock_batching) charge_lock(ctx); // one lock round per batch
    ctx.charge(costs.batch_housekeeping);
}

std::uint32_t NetdevAfxdp::rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                                    std::uint32_t max, sim::ExecContext& ctx)
{
    const auto& costs = nic_.kernel().costs();
    QueueState& q = queues_[queue];

    // O1 off: the general-purpose thread sleeps in poll() and takes a
    // wakeup per batch instead of busy-polling the ring; the observed
    // average batch in this configuration is ~2 (strace analysis, §3.2).
    if (!options_.pmd_mode) {
        max = 2;
        ctx.charge(sim::CpuClass::System, costs.syscall + costs.context_switch / 2);
    }

    std::uint32_t n = 0;
    while (n < max) {
        auto desc = q.xsk->rx().consume();
        if (!desc) break;
        ctx.charge(costs.xsk_ring_op);

        auto frame = q.umem->frame(desc->addr);
        net::Packet pkt = net::Packet::from_bytes(frame.subspan(0, desc->len));
        pkt.set_san_id(san::skb_acquire("afxdp-rx", san::SkbState::Driver, OVSX_SITE));
        // AF_XDP carries no NIC metadata: hash and checksum hints from
        // the hardware were lost at the XDP boundary (§3.2 O5, Fig. 12).
        pkt.meta().in_port = 0;
        pkt.meta().trace_id = desc->options; // obs trace id rides the descriptor
        pkt.meta().latency_ns = desc->latency_ns; // rx-metadata timestamp
        sim::Nanos per_pkt = costs.xsk_ring_op;

        // dp_packet metadata (O4).
        ctx.charge(costs.dp_packet_init);
        per_pkt += costs.dp_packet_init;
        if (!options_.metadata_prealloc) {
            ctx.charge(costs.mmap_alloc);
            per_pkt += costs.mmap_alloc;
        }

        // RX checksum validation (O5).
        if (options_.csum_offload) {
            pkt.meta().csum_verified = true; // assumed correct
        } else {
            const auto off = net::locate_headers(pkt);
            if (off.l4 >= 0) {
                const auto c = costs.csum(static_cast<std::int64_t>(pkt.size()));
                ctx.charge(c);
                per_pkt += c;
                pkt.meta().csum_verified = net::verify_l4_csum(pkt, static_cast<std::size_t>(off.l3));
            }
        }

        // No HW hash hint crosses the XDP boundary: with multiple TX
        // queues OVS computes the RSS hash in software (Fig. 12).
        if (nic_.config().num_queues > 1) {
            pkt.meta().rxhash = net::rxhash_from_key(net::parse_flow(pkt));
            pkt.meta().rxhash_valid = true;
            ctx.charge(costs.rxhash_sw);
            per_pkt += costs.rxhash_sw;
        }

        pkt.meta().latency_ns += per_pkt;
        note_rx(pkt);
        out.push_back(std::move(pkt));
        san::frame_transition(q.umem->san_scope(), desc->addr, san::FrameState::UserPool,
                              OVSX_SITE);
        q.free_frames.push_back(desc->addr); // frame is free once copied out
        ++n;
    }

    if (n > 0) refill(q, n, ctx);
    OVSX_COVERAGE_CTX(ctx, "afxdp.rx_burst");
    return n;
}

void NetdevAfxdp::tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                           sim::ExecContext& ctx)
{
    if (pkts.empty()) return;
    const auto& costs = nic_.kernel().costs();
    QueueState& q = queues_[queue < queues_.size() ? queue : 0];

    std::uint32_t queued = 0;
    for (auto& pkt : pkts) {
        // Any thread may transmit into any umem region: one umempool
        // acquisition per packet (the non-batchable lock site of O3).
        charge_lock(ctx);
        if (q.free_frames.empty()) {
            ++stats().tx_dropped;
            continue;
        }
        const afxdp::FrameAddr addr = q.free_frames.back();
        q.free_frames.pop_back();
        auto frame = q.umem->frame(addr);
        const std::size_t len = std::min<std::size_t>(pkt.size(), frame.size());

        // TX checksum (O5): software fill unless "offloaded".
        if (pkt.meta().csum_tx_offload) {
            if (!options_.csum_offload) {
                net::refresh_l4_csum(pkt, sizeof(net::EthernetHeader));
                const auto c = costs.csum(static_cast<std::int64_t>(pkt.size()));
                ctx.charge(c);
                pkt.meta().latency_ns += c;
            } else {
                net::refresh_l4_csum(pkt, sizeof(net::EthernetHeader)); // "fixed value"
            }
            pkt.meta().csum_tx_offload = false;
        }

        std::memcpy(frame.data(), pkt.data(), len);
        san::skb_transition(pkt.san_id(), san::SkbState::Tx, OVSX_SITE);
        const auto copy_cost = costs.copy(static_cast<std::int64_t>(len));
        ctx.charge(copy_cost);
        pkt.meta().latency_ns += copy_cost + costs.xsk_ring_op;
        ctx.charge(costs.xsk_ring_op);
        san::frame_transition(q.umem->san_scope(), addr, san::FrameState::TxRing,
                              OVSX_SITE);
        q.xsk->tx().produce({addr, static_cast<std::uint32_t>(len), pkt.meta().trace_id,
                             pkt.meta().latency_ns});
        note_tx(pkt);
        ++queued;
    }
    if (queued == 0) return;

    // Kick the kernel (sendto) once per batch; the driver drains the TX
    // ring in softirq context and returns completions. This is the
    // AF_XDP doorbell — amortized over the burst, never per packet.
    {
        obs::PerfStageScope tx_scope(ctx.perf(), obs::PerfStage::Tx);
        nic_.xsk_tx_kick(*q.xsk, queue, ctx);
    }
    OVSX_COVERAGE_CTX(ctx, "afxdp.tx_kick");
    if (auto* perf = ctx.perf()) perf->note_doorbell();

    // Reclaim completed frames into the umempool.
    while (auto addr = q.umem->comp().consume()) {
        ctx.charge(costs.xsk_ring_op);
        san::frame_transition(q.umem->san_scope(), *addr, san::FrameState::UserPool,
                              OVSX_SITE);
        q.free_frames.push_back(*addr);
    }
}

} // namespace ovsx::ovs

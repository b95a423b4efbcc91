#include "kern/nic.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kern/kernel.h"
#include "net/builder.h"
#include "net/hash.h"
#include "net/headers.h"
#include "obs/trace.h"
#include "san/packet_ledger.h"

namespace ovsx::kern {

PhysicalDevice::PhysicalDevice(Kernel& kernel, std::string name, net::MacAddr mac, NicConfig cfg)
    : Device(kernel, std::move(name), DeviceKind::Physical, mac), cfg_(cfg)
{
    set_config(cfg);
}

void PhysicalDevice::set_config(const NicConfig& cfg)
{
    cfg_ = cfg;
    softirq_.clear();
    queue_progs_.assign(cfg_.num_queues, std::nullopt);
    for (std::uint32_t q = 0; q < cfg_.num_queues; ++q) {
        softirq_.emplace_back(name() + "-q" + std::to_string(q) + "-softirq",
                              sim::CpuClass::Softirq);
        // Always-on cycle profiler — the kernel datapath's receive path
        // runs in these contexts, so its pmd/perf-show rows come from
        // here (one row per NIC queue, the softirq analogue of a PMD).
        softirq_.back().attach_perf(softirq_.back().name());
    }
}

std::uint32_t PhysicalDevice::select_queue(const net::Packet& pkt) const
{
    return select_queue(net::parse_flow(pkt));
}

std::uint32_t PhysicalDevice::select_queue(const net::FlowKey& key) const
{
    for (const auto& rule : ntuple_) {
        if (rule.proto && rule.proto != key.nw_proto) continue;
        if (rule.dst_port && rule.dst_port != key.tp_dst) continue;
        if (rule.dst_ip && rule.dst_ip != key.nw_dst) continue;
        return rule.queue < cfg_.num_queues ? rule.queue : 0;
    }
    if (cfg_.rss && cfg_.num_queues > 1) {
        return net::rxhash_from_key(key) % cfg_.num_queues;
    }
    return 0;
}

void PhysicalDevice::attach_xdp(ebpf::Image image, int queue)
{
    if (queue < 0) {
        dev_prog_ = std::move(image);
        return;
    }
    if (cfg_.xdp_model != NicConfig::XdpModel::PerQueue) {
        throw std::invalid_argument(name() + ": driver only supports whole-device XDP attach");
    }
    if (static_cast<std::uint32_t>(queue) >= cfg_.num_queues) {
        throw std::out_of_range(name() + ": no such queue");
    }
    queue_progs_[static_cast<std::size_t>(queue)] = std::move(image);
}

void PhysicalDevice::detach_xdp(int queue)
{
    if (queue < 0) {
        dev_prog_.reset();
        for (auto& p : queue_progs_) p.reset();
        return;
    }
    if (static_cast<std::uint32_t>(queue) < cfg_.num_queues) {
        queue_progs_[static_cast<std::size_t>(queue)].reset();
    }
}

const ebpf::Image* PhysicalDevice::xdp_program(std::uint32_t queue) const
{
    if (queue < queue_progs_.size() && queue_progs_[queue]) return &*queue_progs_[queue];
    if (dev_prog_) return &*dev_prog_;
    return nullptr;
}

void PhysicalDevice::rx_from_wire(net::Packet&& pkt, std::optional<std::uint32_t> forced_queue)
{
    if (pkt.san_id()) {
        // Re-entering a NIC over a simulated cable: same buffer, new
        // driver ownership.
        san::skb_transition(pkt.san_id(), san::SkbState::Driver, OVSX_SITE);
    } else {
        pkt.set_san_id(san::skb_acquire("wire-rx", san::SkbState::Driver, OVSX_SITE));
    }

    // One parse serves steering and the RSS hash, and none is made when
    // neither needs it: one queue and no ntuple rules steer nothing, and
    // the DPDK PMD reads no hash from the kernel's rx path.
    const bool steer =
        !forced_queue && (!ntuple_.empty() || (cfg_.rss && cfg_.num_queues > 1));
    const bool hash = cfg_.rss && !dpdk_rx_;
    std::optional<net::FlowKey> key;
    if (steer || hash) key = net::parse_flow(pkt);
    const std::uint32_t q = forced_queue ? *forced_queue : steer ? select_queue(*key) : 0;

    if (dpdk_rx_) {
        // Kernel completely bypassed: the PMD owns the queues.
        dpdk_rx_(std::move(pkt), q);
        return;
    }

    sim::ExecContext& ctx = softirq_[q];
    const auto& costs = kernel().costs();

    ctx.charge(costs.nic_rx_desc);
    pkt.meta().latency_ns += costs.nic_rx_desc;
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::NicRx, pkt.meta().latency_ns, name().c_str(),
                   q);
    }
    if (interrupt_mode_) {
        // One interrupt per NAPI batch; the wakeup it causes is paid by
        // whoever sleeps on the data (stack socket or AF_XDP poller).
        if (irq_count_++ % kIrqBatch == 0) ctx.charge(costs.nic_irq);
        pkt.meta().latency_ns += costs.nic_irq / kIrqBatch;
    }

    // Hardware RX offloads.
    if (hash) {
        pkt.meta().rxhash = net::rxhash_from_key(*key);
        pkt.meta().rxhash_valid = true;
    }
    if (cfg_.rx_csum) pkt.meta().csum_verified = true;

    if (const ebpf::Image* prog = xdp_program(q)) {
        const XdpVerdict verdict = kernel().run_xdp(*prog, pkt, *this, q, ctx);
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Xdp, pkt.meta().latency_ns,
                       to_string(verdict), q);
        }
        switch (verdict) {
        case XdpVerdict::Drop:
        case XdpVerdict::Aborted:
            san::skb_free(pkt.san_id(), OVSX_SITE);
            ++xdp_drops_;
            return;
        case XdpVerdict::Tx: {
            ctx.charge(costs.nic_tx_desc + costs.xdp_tx_flush);
            pkt.meta().latency_ns += costs.nic_tx_desc + costs.xdp_tx_flush;
            san::skb_transition(pkt.san_id(), san::SkbState::Tx, OVSX_SITE);
            note_tx(pkt);
            to_wire(std::move(pkt));
            return;
        }
        case XdpVerdict::RedirectedXsk:
        case XdpVerdict::RedirectedDev:
            // Consumed by the redirect target (the bytes live on in a
            // umem frame or the peer device); this skb is recycled.
            san::skb_free(pkt.san_id(), OVSX_SITE);
            ++stats().rx_packets;
            stats().rx_bytes += pkt.size();
            return;
        case XdpVerdict::PassToStack:
        case XdpVerdict::NoProgram:
            break;
        }
    }

    // Conventional path: allocate an skb and hand the frame up. With
    // RSS spreading one stack across CPUs, shared cachelines (flow
    // stats, slabs) bounce -- the kernel's "fast but not efficient"
    // behaviour in Fig. 9 / Table 4.
    ctx.charge(costs.skb_alloc);
    pkt.meta().latency_ns += costs.skb_alloc;
    if (cfg_.num_queues > 1) {
        ctx.charge(costs.kernel_smp_contention);
        pkt.meta().latency_ns += costs.kernel_smp_contention;
    }
    deliver_rx(std::move(pkt), ctx);
}

std::uint32_t PhysicalDevice::xsk_tx_kick(afxdp::XskSocket& sock, std::uint32_t queue,
                                          sim::ExecContext& user_ctx)
{
    const auto& costs = kernel().costs();
    // sendto() on the XSK fd.
    user_ctx.charge(sim::CpuClass::System, costs.syscall);

    sim::ExecContext& ctx = softirq_[queue < cfg_.num_queues ? queue : 0];
    std::uint32_t sent = 0;
    while (auto pkt = sock.kernel_collect_tx(costs, ctx)) {
        pkt->set_san_id(san::skb_acquire("xsk-tx", san::SkbState::Tx, OVSX_SITE));
        ctx.charge(costs.nic_tx_desc);
        tx_offloads(*pkt, ctx, /*charge_sw=*/true);
        note_tx(*pkt);
        to_wire(std::move(*pkt));
        ++sent;
    }
    return sent;
}

void PhysicalDevice::dpdk_take_over(DpdkRx rx)
{
    dpdk_rx_ = std::move(rx);
    set_kernel_managed(false);
    detach_xdp(-1);
}

void PhysicalDevice::dpdk_release()
{
    dpdk_rx_ = nullptr;
    set_kernel_managed(true);
}

void PhysicalDevice::tx_offloads(net::Packet& pkt, sim::ExecContext& ctx, bool charge_sw)
{
    const auto& costs = kernel().costs();
    if (pkt.meta().csum_tx_offload) {
        if (cfg_.tx_csum) {
            // Hardware inserts the checksum: correctness maintained, no
            // CPU cost charged.
            net::refresh_l4_csum(pkt, sizeof(net::EthernetHeader));
        } else if (charge_sw) {
            net::refresh_l4_csum(pkt, sizeof(net::EthernetHeader));
            ctx.charge(costs.csum(static_cast<std::int64_t>(pkt.size())));
            pkt.meta().latency_ns += costs.csum(static_cast<std::int64_t>(pkt.size()));
        }
        pkt.meta().csum_tx_offload = false;
    }
}

void PhysicalDevice::to_wire(net::Packet&& pkt)
{
    if (!wire_) return;
    const std::uint16_t segsz = pkt.meta().tso_segsz;
    if (segsz == 0 || pkt.size() <= sizeof(net::EthernetHeader) + 40 + segsz) {
        pkt.meta().tso_segsz = 0;
        wire_(std::move(pkt));
        return;
    }
    // TSO: hardware slices the super-segment into MSS-sized TCP segments.
    const auto off = net::locate_headers(pkt);
    if (off.l4 < 0 || off.nw_proto != 6) {
        pkt.meta().tso_segsz = 0;
        wire_(std::move(pkt));
        return;
    }
    const auto l3 = static_cast<std::size_t>(off.l3);
    const auto l4 = static_cast<std::size_t>(off.l4);
    const auto* tcp = pkt.header_at<net::TcpHeader>(l4);
    const std::size_t header_len = l4 + static_cast<std::size_t>(tcp->header_len());
    const std::size_t payload_len = pkt.size() - header_len;
    std::uint32_t seq = tcp->seq();

    for (std::size_t done = 0; done < payload_len;) {
        const std::size_t chunk = std::min<std::size_t>(segsz, payload_len - done);
        net::Packet seg(header_len + chunk);
        std::memcpy(seg.data(), pkt.data(), header_len);
        std::memcpy(seg.data() + header_len, pkt.data() + header_len + done, chunk);
        auto* ip = seg.header_at<net::Ipv4Header>(l3);
        ip->set_total_len(static_cast<std::uint16_t>(seg.size() - l3));
        auto* th = seg.header_at<net::TcpHeader>(l4);
        th->seq_be = net::host_to_be32(seq);
        net::refresh_ipv4_csum(seg, l3);
        net::refresh_l4_csum(seg, l3);
        seg.set_san_id(san::skb_clone(pkt.san_id(), OVSX_SITE));
        seg.meta() = pkt.meta();
        seg.meta().tso_segsz = 0;
        seg.meta().csum_tx_offload = false;
        done += chunk;
        seq += static_cast<std::uint32_t>(chunk);
        wire_(std::move(seg));
    }
}

void PhysicalDevice::transmit(net::Packet&& pkt, sim::ExecContext& ctx)
{
    if (!kernel_managed()) {
        ++stats().tx_dropped; // the kernel no longer owns this device
        return;
    }
    const auto& costs = kernel().costs();
    ctx.charge(costs.nic_tx_desc);
    pkt.meta().latency_ns += costs.nic_tx_desc;
    tx_offloads(pkt, ctx, /*charge_sw=*/true);
    san::skb_transition(pkt.san_id(), san::SkbState::Tx, OVSX_SITE);
    note_tx(pkt);
    to_wire(std::move(pkt));
}

void PhysicalDevice::hw_transmit(net::Packet&& pkt)
{
    // DPDK PMD TX: offloads are handled by hardware descriptors.
    if (pkt.meta().csum_tx_offload) {
        net::refresh_l4_csum(pkt, sizeof(net::EthernetHeader));
        pkt.meta().csum_tx_offload = false;
    }
    san::skb_transition(pkt.san_id(), san::SkbState::Tx, OVSX_SITE);
    note_tx(pkt);
    to_wire(std::move(pkt));
}

std::vector<const obs::PmdPerf*> softirq_perfs(const std::vector<Device*>& devices)
{
    std::vector<const obs::PmdPerf*> rows;
    for (Device* dev : devices) {
        auto* nic = dynamic_cast<PhysicalDevice*>(dev);
        if (!nic) continue;
        for (std::uint32_t q = 0; q < nic->config().num_queues; ++q) {
            if (const obs::PmdPerf* perf = nic->softirq_ctx(q).perf()) rows.push_back(perf);
        }
    }
    return rows;
}

} // namespace ovsx::kern

// The calibrated virtual-time cost model.
//
// One constant per hardware/kernel effect that our sandbox cannot
// measure natively. Substrate code charges these costs when the
// corresponding *real* operation happens (a ring slot is consumed, a
// lock is taken, an eBPF instruction is retired, bytes are copied...).
//
// Calibration anchors are the paper's own measured numbers; each field
// notes the anchor it was fit against. See DESIGN.md §5 and
// EXPERIMENTS.md for the paper-vs-measured comparison.
#pragma once

#include "sim/time.h"

namespace ovsx::sim {

struct CostModel {
    // ---- NIC / driver ------------------------------------------------
    Nanos nic_rx_desc = 18;  // driver RX descriptor + DMA completion handling
    Nanos nic_tx_desc = 18;  // driver TX descriptor handling
    Nanos nic_irq = 1400;    // raise + service one interrupt (amortised over a NAPI batch)

    // ---- memory -------------------------------------------------------
    double copy_per_byte = 0.06; // streaming memcpy, ns/byte
    Nanos cache_miss = 32;       // one LLC miss (first touch of a cold packet line)
    Nanos skb_alloc = 68;        // kernel sk_buff allocation + init
    Nanos skb_free = 22;
    Nanos mmap_alloc = 7; // amortised mmap-backed dp_packet metadata alloc (removed by O4)

    // ---- synchronisation ----------------------------------------------
    // Anchor: Table 2 O2 (mutex->spinlock: 4.8 -> 6.0 Mpps with two lock
    // pairs per packet) and O3 (lock batching: 6.0 -> 6.3 Mpps).
    Nanos mutex_lock_pair = 30; // pthread_mutex lock+unlock (amortised futex risk)
    Nanos spin_lock_pair = 9;   // uncontended spinlock lock+unlock
    Nanos spin_contended_extra = 40;

    // ---- kernel crossings ----------------------------------------------
    Nanos syscall = 520;        // light syscall on a ready fd (sendto/recvmsg)
    Nanos context_switch = 1100;// full blocking context switch + wakeup
    Nanos tap_sendto = 2000;    // anchor: paper §3.3 measured sendto on tap at ~2 us

    // ---- checksumming ---------------------------------------------------
    // Anchor: Table 2 O5 (estimated checksum offload on 64B: 6.6 -> 7.1
    // Mpps, i.e. ~11 ns on 64 bytes -> ~0.17 ns/B touched twice) and the
    // Fig. 8 offload deltas on 1448B TCP segments.
    double csum_per_byte = 0.17;

    // ---- eBPF -----------------------------------------------------------
    // Anchor: Fig. 2 (eBPF datapath 10-20% slower than the kernel module)
    // and Table 5 task ladder.
    double ebpf_insn = 0.55; // one interpreted/sandboxed instruction
    Nanos ebpf_helper_call = 14;
    Nanos ebpf_map_lookup = 24; // hash-map lookup helper body

    // ---- userspace OVS flow lookup ---------------------------------------
    Nanos parse_extract = 46;  // miniflow extraction (header parse into FlowKey)
    Nanos emc_hit = 28;        // exact-match cache hit (hash + key compare)
    Nanos megaflow_probe = 30; // one subtable probe in tuple-space search
    Nanos upcall = 120000;     // slow-path upcall into ofproto rule lookup

    // ---- in-kernel OVS datapath module -----------------------------------
    // Anchor: Fig. 2 kernel bar (~2.2 Mpps, one core, 64B single flow).
    Nanos kdp_base = 290;      // fixed per-packet module overhead (flow key
                               // extraction, stats, action setup)
    Nanos kdp_flow_probe = 30; // one mask probe in the kernel flow table
    // When RSS spreads one datapath instance across many hyperthreads,
    // shared flow-table statistics and slab cachelines bounce between
    // CPUs. Anchor: Table 4 kernel P2P (9.7 hyperthreads busy at ~5-6
    // Mpps -> ~1.6-1.9 us of softirq per packet, vs ~0.45 us unicore).
    Nanos kernel_smp_contention = 1150;

    // ---- vhost / virtio ---------------------------------------------------
    Nanos vhost_ring_op = 45; // one virtio descriptor per packet, polled vhostuser
    Nanos vhost_kick = 900;   // eventfd kick when the peer is not polling
    // Copies into/out of guest memory run colder than cache-hot memcpy
    // (guest pages, vhost address translation). Anchor: Fig. 8(b) vhost
    // TSO bar (~29 Gbps through two 64kB copies per segment).
    double vhost_copy_per_byte = 0.135;

    // ---- TCP endpoint model ---------------------------------------------------
    // Per-segment TCP stack cost at an endpoint (socket wakeup, TCP
    // processing, app copy excluded). Anchor: Fig. 8(c) kernel bars.
    Nanos tcp_stack_per_segment = 700;

    // ---- XDP infrastructure -----------------------------------------------
    Nanos xdp_setup = 20;     // build xdp_buff + indirect program invocation
    Nanos xdp_redirect = 35;  // devmap/xskmap redirect plumbing per packet
    // XDP_TX converts the RX descriptor to TX and flushes per packet;
    // anchor: Table 5 task D (C -> D drops 7.1 -> 4.7 Mpps).
    Nanos xdp_tx_flush = 60;

    // ---- AF_XDP -------------------------------------------------------------
    Nanos xsk_ring_op = 5; // one produce/consume on an XSK descriptor ring
    Nanos rxhash_sw = 26;  // software 5-tuple hash when no HW hint (Fig. 12 discussion)

    // ---- DPDK ------------------------------------------------------------------
    // Anchor: Fig. 2 DPDK bar (~9 Mpps single core, 64B) and Fig. 9
    // P2P/PVP DPDK rows.
    Nanos dpdk_rx_desc = 12; // PMD RX descriptor handling (no kernel involved)
    Nanos dpdk_tx_desc = 12;
    Nanos mbuf_op = 7;       // mbuf alloc/free from the mempool cache
    // One uncached MMIO write to the NIC tail register, paid once per
    // rx or tx burst (the DPDK rings amortize it over the burst).
    Nanos nic_doorbell = 90;

    // ---- userspace datapath misc --------------------------------------------
    Nanos dp_packet_init = 12;    // metadata init when preallocated (O4 state)
    Nanos batch_housekeeping = 80; // per-batch umempool refill bookkeeping

    // The baseline model used by all benches.
    static const CostModel& baseline();

    // Cost of copying `bytes` bytes.
    Nanos copy(std::int64_t bytes) const
    {
        return static_cast<Nanos>(static_cast<double>(bytes) * copy_per_byte);
    }

    // Cost of checksumming `bytes` bytes in software.
    Nanos csum(std::int64_t bytes) const
    {
        return static_cast<Nanos>(static_cast<double>(bytes) * csum_per_byte);
    }
};

// Packets per second achievable on a link of `gbps`, for frames of
// `frame_bytes` on the wire (adds 20B preamble + inter-frame gap; the
// FCS is assumed to be part of the frame).
double line_rate_pps(double gbps, int frame_bytes);

} // namespace ovsx::sim

// rte_ethdev-style port: the DPDK PMD takes exclusive ownership of a
// physical NIC, polling its queues entirely in userspace. The moment
// this binds, the kernel — and every tool in Table 1 — loses the device.
#pragma once

#include <optional>
#include <vector>

#include "dpdk/mempool.h"
#include "kern/nic.h"
#include "net/packet.h"
#include "sim/context.h"
#include "sync/annotations.h"

namespace ovsx::dpdk {

class EthDev {
public:
    // Binds the PMD to `nic` (vfio-pci style takeover).
    EthDev(kern::PhysicalDevice& nic, Mempool& pool);
    ~EthDev();

    EthDev(const EthDev&) = delete;
    EthDev& operator=(const EthDev&) = delete;

    std::uint32_t n_queues() const { return static_cast<std::uint32_t>(queues_.size()); }

    // Polls up to `max` packets from a queue. Always costs at least one
    // poll-loop iteration (the busy-poll price DPDK pays for latency).
    OVSX_NO_ALLOC std::uint32_t rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                                         std::uint32_t max, sim::ExecContext& pmd);

    OVSX_NO_ALLOC void tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                                sim::ExecContext& pmd);

    std::uint64_t rx_dropped() const { return rx_dropped_; }

    kern::PhysicalDevice& nic() { return nic_; }

private:
    static constexpr std::size_t kQueueDepth = 4096;

    // One rx descriptor ring. Arrivals past kQueueDepth packets drop;
    // below that the ring doubles when an arrival finds it full, so a
    // warm queue moves packets without allocating and an idle one holds
    // only its first slots.
    struct RxQueue {
        std::vector<std::optional<net::Packet>> slots =
            std::vector<std::optional<net::Packet>>(64);
        std::size_t head = 0;
        std::size_t count = 0;

        void push(net::Packet&& pkt);
        net::Packet& front() { return *slots[head]; }
        void pop();
    };

    kern::PhysicalDevice& nic_;
    Mempool& pool_;
    std::vector<RxQueue> queues_;
    std::uint64_t rx_dropped_ = 0;
};

} // namespace ovsx::dpdk

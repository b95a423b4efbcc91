#include "dpdk/ethdev.h"

#include "kern/kernel.h"
#include "obs/coverage.h"
#include "obs/perf.h"

namespace ovsx::dpdk {

EthDev::EthDev(kern::PhysicalDevice& nic, Mempool& pool) : nic_(nic), pool_(pool)
{
    queues_.resize(nic.config().num_queues);
    nic_.dpdk_take_over([this](net::Packet&& pkt, std::uint32_t queue) {
        auto& q = queues_[queue < queues_.size() ? queue : 0];
        if (q.count >= kQueueDepth) {
            ++rx_dropped_;
            return;
        }
        // Hardware RX offloads still apply — the PMD programs them via
        // its own descriptors.
        pkt.meta().csum_verified = nic_.config().rx_csum;
        q.push(std::move(pkt));
    });
}

void EthDev::RxQueue::push(net::Packet&& pkt)
{
    if (count == slots.size()) {
        std::vector<std::optional<net::Packet>> grown(slots.size() * 2);
        for (std::size_t i = 0; i < count; ++i) {
            grown[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        }
        slots = std::move(grown);
        head = 0;
    }
    slots[(head + count) & (slots.size() - 1)].emplace(std::move(pkt));
    ++count;
}

void EthDev::RxQueue::pop()
{
    slots[head].reset();
    head = (head + 1) & (slots.size() - 1);
    --count;
}

EthDev::~EthDev() { nic_.dpdk_release(); }

std::uint32_t EthDev::rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                               std::uint32_t max, sim::ExecContext& pmd)
{
    const auto& costs = nic_.kernel().costs();
    auto& q = queues_[queue < queues_.size() ? queue : 0];
    std::uint32_t n = 0;
    while (n < max && q.count > 0) {
        pmd.charge(costs.dpdk_rx_desc + costs.mbuf_op);
        q.front().meta().latency_ns += costs.dpdk_rx_desc + costs.mbuf_op;
        out.push_back(std::move(q.front()));
        q.pop();
        ++n;
    }
    if (n > 0) {
        // One RX tail-register update for the whole burst, not one per
        // descriptor; the cost is amortized so it charges the PMD but
        // no individual packet's latency.
        pmd.charge(costs.nic_doorbell);
        OVSX_COVERAGE_CTX(pmd, "dpdk.rx_doorbell");
        if (auto* perf = pmd.perf()) perf->note_doorbell();
    }
    OVSX_COVERAGE_CTX(pmd, "dpdk.rx_burst");
    return n;
}

void EthDev::tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                      sim::ExecContext& pmd)
{
    (void)queue;
    const auto& costs = nic_.kernel().costs();
    if (pkts.empty()) return;
    for (auto& pkt : pkts) {
        pmd.charge(costs.dpdk_tx_desc + costs.mbuf_op);
        pkt.meta().latency_ns += costs.dpdk_tx_desc + costs.mbuf_op;
        nic_.hw_transmit(std::move(pkt));
    }
    // One TX doorbell per burst (the per-packet variant is what the
    // XDP_TX row of Table 5 pays).
    obs::PerfStageScope tx_scope(pmd.perf(), obs::PerfStage::Tx);
    pmd.charge(costs.nic_doorbell);
    OVSX_COVERAGE_CTX(pmd, "dpdk.tx_doorbell");
    if (auto* perf = pmd.perf()) perf->note_doorbell();
}

} // namespace ovsx::dpdk

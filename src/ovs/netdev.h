// Netdev: the userspace datapath's port abstraction. One implementation
// per I/O technology — AF_XDP, DPDK, vhost-user, and kernel devices via
// packet sockets (tap/veth) — mirroring OVS's netdev providers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/context.h"

namespace ovsx::ovs {

struct NetdevStats {
    std::uint64_t rx_packets = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t tx_dropped = 0;
};

class Netdev {
public:
    static constexpr std::uint32_t kBatchSize = 32; // NETDEV_MAX_BURST

    explicit Netdev(std::string name) : name_(std::move(name)) {}
    virtual ~Netdev() = default;

    Netdev(const Netdev&) = delete;
    Netdev& operator=(const Netdev&) = delete;

    const std::string& name() const { return name_; }
    virtual const char* type() const = 0;
    virtual std::uint32_t n_rxq() const { return 1; }

    // Polls up to `max` packets from `queue` into `out`. Charged to `ctx`.
    virtual std::uint32_t rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                                   std::uint32_t max, sim::ExecContext& ctx) = 0;

    // Sends a batch. Implementations batch kernel crossings where the
    // technology allows (the O3 spinlock-batching / syscall-batching
    // effects live here).
    virtual void tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                          sim::ExecContext& ctx) = 0;

    NetdevStats& stats() { return stats_; }
    const NetdevStats& stats() const { return stats_; }

protected:
    void note_rx(const net::Packet& pkt)
    {
        ++stats_.rx_packets;
        stats_.rx_bytes += pkt.size();
    }
    void note_tx(const net::Packet& pkt)
    {
        ++stats_.tx_packets;
        stats_.tx_bytes += pkt.size();
    }

private:
    std::string name_;
    NetdevStats stats_;
};

} // namespace ovsx::ovs

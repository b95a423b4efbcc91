// Token-bucket rate limiting shared by every datapath. §6's "traffic
// shaping and policing is still missing, so we currently use the
// OpenFlow meter action to support rate limiting" — moved down from
// src/ovs so the kernel-module datapath enforces the same semantics as
// the userspace one instead of silently forwarding metered traffic.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/time.h"

namespace ovsx::kern {

struct MeterConfig {
    std::uint64_t rate_kbps = 0; // 0 = packets-per-second meter
    std::uint64_t rate_pps = 0;
    std::uint64_t burst = 0;     // bucket depth, bits or packets
};

class MeterTable {
public:
    void set(std::uint32_t meter_id, const MeterConfig& cfg);
    bool remove(std::uint32_t meter_id);

    // Charges one packet of `bytes` at virtual time `now`. Returns true
    // when the packet conforms (passes), false when it must be dropped.
    bool admit(std::uint32_t meter_id, std::size_t bytes, sim::Nanos now);

    std::uint64_t dropped(std::uint32_t meter_id) const;
    bool exists(std::uint32_t meter_id) const { return meters_.contains(meter_id); }

private:
    struct TokenBucket {
        MeterConfig cfg;
        double tokens = 0; // bits or packets
        sim::Nanos last_fill = 0;
        std::uint64_t dropped = 0;
    };

    std::unordered_map<std::uint32_t, TokenBucket> meters_;
};

} // namespace ovsx::kern

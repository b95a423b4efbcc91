#include "kern/meter.h"

#include <algorithm>

namespace ovsx::kern {

void MeterTable::set(std::uint32_t meter_id, const MeterConfig& cfg)
{
    TokenBucket bucket;
    bucket.cfg = cfg;
    bucket.tokens = static_cast<double>(cfg.burst);
    meters_[meter_id] = bucket;
}

bool MeterTable::remove(std::uint32_t meter_id) { return meters_.erase(meter_id) > 0; }

bool MeterTable::admit(std::uint32_t meter_id, std::size_t bytes, sim::Nanos now)
{
    auto it = meters_.find(meter_id);
    if (it == meters_.end()) return true; // unknown meter: no policing
    TokenBucket& b = it->second;

    const double elapsed_s =
        static_cast<double>(std::max<sim::Nanos>(now - b.last_fill, 0)) / 1e9;
    b.last_fill = now;
    double need;
    if (b.cfg.rate_kbps) {
        b.tokens = std::min(static_cast<double>(b.cfg.burst),
                            b.tokens + elapsed_s * static_cast<double>(b.cfg.rate_kbps) * 1000.0);
        need = static_cast<double>(bytes) * 8.0;
    } else {
        b.tokens = std::min(static_cast<double>(b.cfg.burst),
                            b.tokens + elapsed_s * static_cast<double>(b.cfg.rate_pps));
        need = 1.0;
    }
    if (b.tokens >= need) {
        b.tokens -= need;
        return true;
    }
    ++b.dropped;
    return false;
}

std::uint64_t MeterTable::dropped(std::uint32_t meter_id) const
{
    auto it = meters_.find(meter_id);
    return it == meters_.end() ? 0 : it->second.dropped;
}

} // namespace ovsx::kern

#include <cstdio>
#include <cstring>

#include "perfbench.h"

namespace perfbench {

SpanLog::Totals SpanLog::totals(std::size_t from) const
{
    Totals t;
    if (from >= spans_.size()) return t;
    // Children are recorded after their parent and nest strictly inside
    // it (one thread), so a parent's covered time is the sum of its
    // children's durations.
    std::vector<std::int64_t> child(spans_.size() - from, 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.parent != kNone && s.parent >= from) child[s.parent - from] += s.end - s.start;
    }
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const auto n = static_cast<int>(s.name);
        const auto dur = static_cast<double>(s.end - s.start);
        t.incl_ns[n] += dur;
        t.self_ns[n] += dur - static_cast<double>(child[i - from]);
        ++t.count[n];
    }
    return t;
}

bool write_spans(const std::string& path,
                 const std::vector<std::pair<Provider, const SpanLog*>>& logs)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    // Record layout: u8 provider, u8 name, u16 zero, u32 parent index
    // (within the provider's log, ~0 for a root), u32 burst id, u32
    // zero, i64 start ns, i64 end ns (steady clock).
    struct Record {
        std::uint8_t provider;
        std::uint8_t name;
        std::uint16_t pad0;
        std::uint32_t parent;
        std::uint32_t burst;
        std::uint32_t pad1;
        std::int64_t start;
        std::int64_t end;
    };
    static_assert(sizeof(Record) == 32);
    bool ok = true;
    std::vector<Record> buf;
    for (const auto& [provider, log] : logs) {
        buf.clear();
        buf.reserve(log->spans().size());
        for (const Span& s : log->spans()) {
            buf.push_back({static_cast<std::uint8_t>(provider), static_cast<std::uint8_t>(s.name),
                           0, s.parent, s.burst, 0, s.start, s.end});
        }
        if (!buf.empty() && std::fwrite(buf.data(), sizeof(Record), buf.size(), f) != buf.size()) {
            ok = false;
        }
    }
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench

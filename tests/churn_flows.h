// The churn benchmark's shape of megaflow table, for the at-scale table
// tests of the megaflow cache and the kernel flow table: eight masks
// (in_port + dl_type + an nw_dst prefix from /8 to /24, two of them
// also tp_dst) and a seeded stream of flow keys over them. Mask t only
// ever sees destinations in 16+t.0.0.0/8, so a key's masked image can
// match flows of its own mask only; short prefixes saturate quickly,
// which makes a long stream re-install many masked keys (replacement).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/flow.h"
#include "sim/rng.h"

namespace ovsx::churn {

constexpr std::size_t kMasks = 8;

inline std::uint32_t prefix(int len) { return len ? ~std::uint32_t{0} << (32 - len) : 0; }

inline std::vector<net::FlowMask> masks()
{
    struct Shape {
        int prefix;
        bool tp_dst;
    };
    static constexpr Shape kShapes[kMasks] = {{8, false},  {12, false}, {16, false},
                                              {18, false}, {20, false}, {24, false},
                                              {16, true},  {20, true}};
    std::vector<net::FlowMask> out;
    for (const Shape& s : kShapes) {
        net::FlowMask m;
        m.bits.in_port = 0xffffffff;
        m.bits.dl_type = 0xffff;
        m.bits.nw_dst = prefix(s.prefix);
        if (s.tp_dst) m.bits.tp_dst = 0xffff;
        out.push_back(m);
    }
    return out;
}

struct Flow {
    net::FlowKey key; // unmasked
    std::size_t mask; // index into masks()
};

// `n` keys, mask drawn uniformly; ports and sources vary so the
// unmasked keys differ even where the masked images coincide.
inline std::vector<Flow> flows(std::uint64_t seed, std::size_t n)
{
    sim::Rng rng(seed);
    std::vector<Flow> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Flow f;
        f.mask = rng.below(kMasks);
        f.key.in_port = 1;
        f.key.dl_type = 0x0800;
        f.key.nw_proto = 17;
        f.key.nw_src = rng.u32();
        f.key.nw_dst = (static_cast<std::uint32_t>(16 + f.mask) << 24) | (rng.u32() & 0xffffff);
        f.key.tp_src = rng.u16();
        f.key.tp_dst = static_cast<std::uint16_t>(1024 + 37 * rng.below(64));
        out.push_back(f);
    }
    return out;
}

// The standard library's byte-string hash over a key: lets a reference
// model index masked keys without the FlowKey hash under test.
struct KeyBytesHash {
    std::size_t operator()(const net::FlowKey& k) const
    {
        return std::hash<std::string_view>{}(
            std::string_view(reinterpret_cast<const char*>(&k), sizeof k));
    }
};

} // namespace ovsx::churn

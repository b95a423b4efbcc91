// Flow keys, masks, and the packet -> key parser.
//
// FlowKey mirrors the fields OVS extracts into `struct flow`: tunnel
// metadata, datapath port, recirculation id, connection-tracking state,
// L2, L3 (IPv4 + IPv6), and L4 fields. All multi-byte fields are host
// byte order. The struct's bytes are fully defined (explicit padding,
// zeroed construction) so hashing and equality can operate on raw memory
// — exactly what makes exact-match caches and tuple-space search fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "net/addr.h"
#include "net/packet.h"
#include "net/tunnel_key.h"
#include "sync/annotations.h"

namespace ovsx::net {

// FlowKey::ct_state bits (subset of OVS's CS_*).
constexpr std::uint8_t kCtStateNew = 0x01;
constexpr std::uint8_t kCtStateEstablished = 0x02;
constexpr std::uint8_t kCtStateRelated = 0x04;
constexpr std::uint8_t kCtStateReply = 0x08;
constexpr std::uint8_t kCtStateInvalid = 0x10;
constexpr std::uint8_t kCtStateTracked = 0x20;

// FlowKey::nw_frag bits.
constexpr std::uint8_t kFragAny = 0x01;   // packet is a fragment
constexpr std::uint8_t kFragLater = 0x02; // not the first fragment

struct FlowKey {
    // -- metadata ---------------------------------------------------------
    std::uint64_t tun_id = 0;
    std::uint32_t tun_src = 0;
    std::uint32_t tun_dst = 0;
    std::uint32_t in_port = 0;
    std::uint32_t recirc_id = 0;
    std::uint32_t ct_mark = 0;
    std::uint16_t ct_zone = 0;
    std::uint8_t ct_state = 0;
    std::uint8_t pad0 = 0;

    // -- L2 ----------------------------------------------------------------
    MacAddr dl_src;
    MacAddr dl_dst;
    std::uint16_t dl_type = 0;  // EtherType of the innermost Ethernet payload
    std::uint16_t vlan_tci = 0; // 0 = untagged; else TCI | 0x1000 "present" bit

    // -- L3 ----------------------------------------------------------------
    std::uint32_t nw_src = 0; // IPv4 source (or ARP SPA)
    std::uint32_t nw_dst = 0; // IPv4 destination (or ARP TPA)
    std::uint8_t nw_proto = 0;
    std::uint8_t nw_tos = 0;
    std::uint8_t nw_ttl = 0;
    std::uint8_t nw_frag = 0;
    Ipv6Addr ipv6_src;
    Ipv6Addr ipv6_dst;

    // -- L4 ----------------------------------------------------------------
    std::uint16_t tp_src = 0;
    std::uint16_t tp_dst = 0;
    std::uint8_t tcp_flags = 0;
    std::uint8_t icmp_type = 0;
    std::uint8_t icmp_code = 0;
    std::uint8_t pad1 = 0;
    std::uint32_t pad2 = 0; // keeps sizeof a multiple of alignof with no tail padding

    FlowKey() = default;

    bool operator==(const FlowKey& o) const { return std::memcmp(this, &o, sizeof *this) == 0; }

    // 64-bit hash of the full key (raw-memory FNV-1a over the zero-padded
    // struct; valid because construction zeroes every byte).
    std::uint64_t hash(std::uint64_t basis = 0) const;

    std::string to_string() const;
};

// No implicit padding anywhere: raw-memory hash/equality are well-defined.
static_assert(std::has_unique_object_representations_v<FlowKey>);

// The fields of FlowKey in layout order, padding included: ofproto's
// match-field statistic and the set_field printer name them from here.
struct FlowField {
    enum class Kind : std::uint8_t { Int, Ipv4, Mac, Ipv6, Pad };
    const char* name;
    std::uint8_t offset;
    std::uint8_t len;
    Kind kind;
};

inline constexpr FlowField kFlowFields[] = {
    {"tun_id", offsetof(FlowKey, tun_id), 8, FlowField::Kind::Int},
    {"tun_src", offsetof(FlowKey, tun_src), 4, FlowField::Kind::Ipv4},
    {"tun_dst", offsetof(FlowKey, tun_dst), 4, FlowField::Kind::Ipv4},
    {"in_port", offsetof(FlowKey, in_port), 4, FlowField::Kind::Int},
    {"recirc_id", offsetof(FlowKey, recirc_id), 4, FlowField::Kind::Int},
    {"ct_mark", offsetof(FlowKey, ct_mark), 4, FlowField::Kind::Int},
    {"ct_zone", offsetof(FlowKey, ct_zone), 2, FlowField::Kind::Int},
    {"ct_state", offsetof(FlowKey, ct_state), 1, FlowField::Kind::Int},
    {"pad0", offsetof(FlowKey, pad0), 1, FlowField::Kind::Pad},
    {"dl_src", offsetof(FlowKey, dl_src), 6, FlowField::Kind::Mac},
    {"dl_dst", offsetof(FlowKey, dl_dst), 6, FlowField::Kind::Mac},
    {"dl_type", offsetof(FlowKey, dl_type), 2, FlowField::Kind::Int},
    {"vlan_tci", offsetof(FlowKey, vlan_tci), 2, FlowField::Kind::Int},
    {"nw_src", offsetof(FlowKey, nw_src), 4, FlowField::Kind::Ipv4},
    {"nw_dst", offsetof(FlowKey, nw_dst), 4, FlowField::Kind::Ipv4},
    {"nw_proto", offsetof(FlowKey, nw_proto), 1, FlowField::Kind::Int},
    {"nw_tos", offsetof(FlowKey, nw_tos), 1, FlowField::Kind::Int},
    {"nw_ttl", offsetof(FlowKey, nw_ttl), 1, FlowField::Kind::Int},
    {"nw_frag", offsetof(FlowKey, nw_frag), 1, FlowField::Kind::Int},
    {"ipv6_src", offsetof(FlowKey, ipv6_src), 16, FlowField::Kind::Ipv6},
    {"ipv6_dst", offsetof(FlowKey, ipv6_dst), 16, FlowField::Kind::Ipv6},
    {"tp_src", offsetof(FlowKey, tp_src), 2, FlowField::Kind::Int},
    {"tp_dst", offsetof(FlowKey, tp_dst), 2, FlowField::Kind::Int},
    {"tcp_flags", offsetof(FlowKey, tcp_flags), 1, FlowField::Kind::Int},
    {"icmp_type", offsetof(FlowKey, icmp_type), 1, FlowField::Kind::Int},
    {"icmp_code", offsetof(FlowKey, icmp_code), 1, FlowField::Kind::Int},
    {"pad1", offsetof(FlowKey, pad1), 1, FlowField::Kind::Pad},
    {"pad2", offsetof(FlowKey, pad2), 4, FlowField::Kind::Pad},
};

namespace detail {

// The key is processed as 64-bit lanes (memcpy compiles to plain
// loads); its size is a whole number of lanes. Byte-at-a-time versions
// of hash/apply/matches were the differential soak's hottest functions.
constexpr std::size_t kKeyLanes = sizeof(FlowKey) / sizeof(std::uint64_t);
static_assert(sizeof(FlowKey) % sizeof(std::uint64_t) == 0,
              "FlowKey must be a whole number of 64-bit lanes");

inline std::uint64_t key_lane(const FlowKey& key, std::size_t i)
{
    std::uint64_t w = 0;
    std::memcpy(&w, reinterpret_cast<const std::uint8_t*>(&key) + i * sizeof w, sizeof w);
    return w;
}

// FlowKey::hash, step by step: start from kHashSeed ^ basis, then for
// each lane h = (h ^ mix_lane(lane)) * kLaneMul, then h ^= h >> 32.
constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kLaneMul = 0x2545f4914f6cdd1dULL;

// splitmix64-style avalanche of one lane; maps 0 to 0.
inline std::uint64_t mix_lane(std::uint64_t w)
{
    w *= 0xbf58476d1ce4e5b9ULL;
    w ^= w >> 31;
    return w * 0x94d049bb133111ebULL;
}

} // namespace detail

// Wildcard mask over FlowKey: a bit set to 1 means "match this bit".
// Stored as a FlowKey whose field values are the masks themselves.
struct FlowMask {
    FlowKey bits; // field values are per-bit masks

    // Returns key & mask.
    FlowKey apply(const FlowKey& key) const;

    // Hash of apply(key) without materializing the masked copy —
    // identical to apply(key).hash(basis). The reference for
    // MaskPlan::hash.
    std::uint64_t masked_hash(const FlowKey& key, std::uint64_t basis = 0) const;

    // True if `key` masked equals `masked_key` (which must already be
    // masked by this mask). The reference for MaskPlan::matches.
    bool matches(const FlowKey& key, const FlowKey& masked_key) const;

    // True if two unmasked keys agree on every bit this mask covers —
    // apply(a) == apply(b) without materializing either copy. The
    // reference for MaskPlan::same_masked.
    bool same_masked(const FlowKey& a, const FlowKey& b) const;

    // Number of fully exact bytes in the mask — a crude specificity
    // measure used to order subtable probes.
    int exact_bytes() const;

    std::uint64_t hash() const { return bits.hash(0x9d3a); }
    bool operator==(const FlowMask& o) const { return bits == o.bits; }

    static FlowMask exact(); // all bits significant
    static FlowMask none();  // match-all (no bits significant)
};

// Audit identity of a masked flow-table entry in the megaflow cache's
// san table audit: the masked key hashed
// with the mask (FlowKey bytes are fully defined, so it is
// deterministic). It hashes two full keys, so callers compute it only
// under san::hardened().
inline std::uint64_t flow_audit_key(const FlowKey& masked, const FlowMask& mask)
{
    return masked.hash(mask.hash());
}

// A FlowMask compiled for the probe of one tuple-space-search subtable
// (megaflow cache, ofproto classifier). It lists
// only the mask's non-zero 64-bit lanes: a churn-workload mask covers
// 4-5 of the key's 13. hash() is bit-identical to masked_hash(key) with
// basis 0, so net::SlotTable homes, shard routes and everything keyed
// by that hash keep their values. Why: in the key hash a lane whose
// masked value is zero mixes to zero and only multiplies the running
// hash by kLaneMul, so a run of all-zero mask lanes is one multiply by
// kLaneMul raised to the run's length. The seed absorbs the leading
// run; each listed lane carries kLaneMul to the power of one plus the
// run that follows it.
class MaskPlan {
public:
    explicit MaskPlan(const FlowMask& mask);

    // masked_hash(key) with basis 0.
    OVSX_HOT std::uint64_t hash(const FlowKey& key) const
    {
        std::uint64_t h = seed_;
        for (std::uint32_t j = 0; j < n_; ++j) {
            const Lane& l = lanes_[j];
            h = (h ^ detail::mix_lane(detail::key_lane(key, l.index) & l.bits)) * l.mul;
        }
        return h ^ (h >> 32);
    }

    // FlowMask::matches(key, masked_key) for a masked_key masked by the
    // same mask: its unlisted lanes are zero on both sides of the test.
    OVSX_HOT bool matches(const FlowKey& key, const FlowKey& masked_key) const
    {
        for (std::uint32_t j = 0; j < n_; ++j) {
            const Lane& l = lanes_[j];
            if ((detail::key_lane(key, l.index) & l.bits) !=
                detail::key_lane(masked_key, l.index)) {
                return false;
            }
        }
        return true;
    }

    // FlowMask::same_masked(a, b) for two unmasked keys: the unlisted
    // lanes are masked out on both sides.
    bool same_masked(const FlowKey& a, const FlowKey& b) const
    {
        for (std::uint32_t j = 0; j < n_; ++j) {
            const Lane& l = lanes_[j];
            if ((detail::key_lane(a, l.index) ^ detail::key_lane(b, l.index)) & l.bits) {
                return false;
            }
        }
        return true;
    }

private:
    struct Lane {
        std::uint64_t bits = 0;  // the mask's lane, non-zero
        std::uint64_t mul = 0;   // kLaneMul^(1 + zero lanes after this one)
        std::uint32_t index = 0; // lane number within FlowKey
    };

    std::uint64_t seed_ = 0; // kHashSeed * kLaneMul^(leading zero lanes)
    std::uint32_t n_ = 0;    // listed lanes
    Lane lanes_[detail::kKeyLanes];
};

// Parses `pkt` into a FlowKey, consuming metadata (in_port, tunnel, ct,
// recirc) from pkt.meta(). Returns the key; never throws on malformed
// packets — unparseable layers are simply left zero, as in OVS.
FlowKey parse_flow(const Packet& pkt);

// Returns the byte offsets of the L3 and L4 headers of `pkt` (or -1 when
// absent). Used by actions that rewrite headers.
struct HeaderOffsets {
    int l3 = -1;
    int l4 = -1;
    std::uint16_t dl_type = 0;
    std::uint8_t nw_proto = 0;
};
HeaderOffsets locate_headers(const Packet& pkt);

// ---- ICMP "related" classification helpers ----------------------------
//
// ICMP error messages (destination unreachable, redirect, time exceeded,
// ...) embed the offending datagram: inner IPv4 header + at least the
// first 8 bytes of its L4 header. Conntrack uses that embedded tuple to
// classify the error as RELATED to an existing connection.

// True for ICMP types that cite an original datagram.
bool icmp_type_is_error(std::uint8_t type);

// The 5-tuple extracted from an ICMP error payload, in the *original*
// direction of the cited datagram (as sent by the erroring host's peer).
struct IcmpInnerTuple {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    std::uint8_t proto = 0;
    bool valid = false;
};

// Parses the inner tuple out of an ICMP error frame. `valid` is false
// when the packet is not an ICMP error or the embedded datagram is too
// short / not TCP/UDP.
IcmpInnerTuple parse_icmp_inner(const Packet& pkt);

} // namespace ovsx::net

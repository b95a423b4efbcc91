// In-band network telemetry (INT) carried as a Geneve option.
//
// The fabric stamps one fixed-size hop record per transit switch into a
// single Geneve TLV option (RFC 8926 §3.5) between the Geneve fixed
// header and the inner frame: the inner packet bytes are never touched,
// so decapsulation yields a byte-identical inner frame regardless of
// how many switches stamped. Providers that cannot rewrite packets in
// flight (the eBPF datapath) simply forward the option intact — the
// layout is self-describing, so any later hop can keep appending.
//
// Option layout (all fields network byte order, 4-byte granular):
//
//   GeneveOptionHeader   4 B   class=0x0103 type=0x49 len=body/4
//   IntMetadata          4 B   hop_count | max_hops | flags | rsvd
//   IntHopRecord * N    12 B   switch-id(4) | ingress tier(1) |
//                              egress tier(1) | queue/batch occupancy(2)
//                              | hop-latency ticks(4)
//
// Hop latency is the packet's cumulative virtual latency at stamp time
// in kIntTickNs ticks; per-hop deltas are reconstructed at export.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace ovsx::net {

// Geneve option class/type identifying the INT option.
constexpr std::uint16_t kIntOptClass = 0x0103;
constexpr std::uint8_t kIntOptType = 0x49;

// A 5-bit option length in 4-byte words bounds the body at 124 bytes:
// 4 bytes of metadata + at most 10 twelve-byte hop records.
constexpr std::uint8_t kIntMaxHopsLimit = 10;

// IntMetadata::flags: set when a stamp was dropped because the record
// area was full (the telemetry is truncated, not wrong).
constexpr std::uint8_t kIntFlagTruncated = 0x01;

// Hop-latency tick granularity (ns per tick).
constexpr std::int64_t kIntTickNs = 16;

// Switch tiers as stamped into hop records.
constexpr std::uint8_t kIntTierHost = 0;
constexpr std::uint8_t kIntTierLeaf = 1;
constexpr std::uint8_t kIntTierSpine = 2;

#pragma pack(push, 1)

// RFC 8926 §3.5 option TLV header.
struct GeneveOptionHeader {
    std::uint16_t opt_class_be;
    std::uint8_t type;
    std::uint8_t rsvd_len; // R(3) | body length in 4-byte words(5)

    std::uint16_t opt_class() const { return be16_to_host(opt_class_be); }
    int body_len_bytes() const { return (rsvd_len & 0x1f) * 4; }
    void set_body_len_bytes(std::size_t n)
    {
        rsvd_len = static_cast<std::uint8_t>((rsvd_len & 0xe0) |
                                             (static_cast<std::uint8_t>(n / 4) & 0x1f));
    }
};
static_assert(sizeof(GeneveOptionHeader) == 4);

struct IntMetadata {
    std::uint8_t hop_count;
    std::uint8_t max_hops;
    std::uint8_t flags;
    std::uint8_t reserved;
};
static_assert(sizeof(IntMetadata) == 4);

struct IntHopRecord {
    std::uint32_t switch_id_be;
    std::uint8_t ingress_tier;
    std::uint8_t egress_tier;
    std::uint16_t occupancy_be;
    std::uint32_t latency_ticks_be;

    std::uint32_t switch_id() const { return be32_to_host(switch_id_be); }
    std::uint16_t occupancy() const { return be16_to_host(occupancy_be); }
    std::uint32_t latency_ticks() const { return be32_to_host(latency_ticks_be); }
};
static_assert(sizeof(IntHopRecord) == 12);

#pragma pack(pop)

// Host-order view of one stamped hop.
struct IntHop {
    std::uint32_t switch_id = 0;
    std::uint8_t ingress_tier = 0;
    std::uint8_t egress_tier = 0;
    std::uint16_t occupancy = 0;
    std::uint32_t latency_ticks = 0;
};

// Where the INT option sits inside a Geneve-encapsulated frame (byte
// offsets from the front of `pkt`).
struct IntLocation {
    std::size_t geneve_off = 0; // GeneveHeader
    std::size_t opt_off = 0;    // GeneveOptionHeader
    std::size_t opt_len = 0;    // TLV header + body bytes
    std::uint8_t hop_count = 0;
    std::uint8_t max_hops = 0;
    std::uint8_t flags = 0;
};

// Locates the INT option in an outer Eth/IPv4/UDP(6081)/Geneve frame.
// Returns nullopt for non-Geneve frames, frames without the option, or
// frames whose option region is malformed (truncated/oversized TLVs).
std::optional<IntLocation> int_find(const Packet& pkt);

// Inserts an empty INT option (metadata only, no hop records) into a
// Geneve frame that does not already carry one. Fixes the Geneve option
// length, outer UDP length and outer IPv4 total length/checksum; the
// outer UDP checksum is cleared (legal for UDP over IPv4) since the
// option mutates at every hop. Returns false when the frame is not
// Geneve, already carries INT, or the option space is exhausted.
bool int_attach(Packet& pkt, std::uint8_t max_hops);

// Appends one hop record to the INT option in place. When the record
// area is full (hop_count == max_hops or the TLV length would overflow)
// the truncated flag is set instead and false is returned.
bool int_stamp(Packet& pkt, const IntHop& hop);

// All stamped hop records, in stamping order (empty when absent).
std::vector<IntHop> int_read(const Packet& pkt);

// Removes the INT option and restores the outer lengths/checksums.
// Returns true when an option was removed.
bool int_strip(Packet& pkt);

// Frame-bytes variant of int_strip for verdict normalization: returns
// `bytes` with any INT option removed (unchanged copy when absent).
std::vector<std::uint8_t> int_strip_bytes(std::span<const std::uint8_t> bytes);

// Parses hop records out of a raw Geneve options region (as surfaced by
// DecapResult::geneve_opts after the outer headers are gone). Sets
// *truncated when the option carried the truncated flag. Returns empty
// on malformed input.
std::vector<IntHop> int_parse_options(std::span<const std::uint8_t> opts,
                                      bool* truncated = nullptr);

// A stamping switch's INT role, shared by the two datapaths that stamp
// (dpif-netdev and the kernel module; the eBPF datapath forwards the
// option intact).
struct IntConfig {
    bool enabled = false;
    std::uint32_t switch_id = 0;
    std::uint8_t tier = 0; // kIntTier{Host,Leaf,Spine}
    std::uint8_t max_hops = 8;
    bool attach_on_encap = true; // origin host adds the option
};

// Stamps this switch's hop record (switch id, tier, `occupancy`, the
// packet's cumulative latency in ticks) into a Geneve frame that
// already carries the INT option; every other frame is left alone.
// Returns true when a record was appended. The caller counts
// int.stamped and charges the copy with its own cost model.
bool int_stamp_hop(Packet& pkt, const IntConfig& cfg, std::uint16_t occupancy);

// Last hop: exports the hop records of the INT option that decap popped
// (DecapResult::geneve_opts) for the (src, dst) VTEP pair to
// obs::int_export. A no-op when the options carry no INT option.
void int_export_popped(std::uint32_t src_ip, std::uint32_t dst_ip,
                       std::span<const std::uint8_t> opts);

} // namespace ovsx::net

#include "net/int_hdr.h"

#include <cstring>

#include "net/checksum.h"
#include "obs/int_export.h"

namespace ovsx::net {

namespace {

constexpr std::size_t kEthIp = sizeof(EthernetHeader) + sizeof(Ipv4Header);

// Maximum Geneve options area: 6-bit length in 4-byte words.
constexpr std::size_t kGeneveMaxOptBytes = 63 * 4;
// Maximum INT option body: 5-bit TLV length in 4-byte words.
constexpr std::size_t kIntMaxBodyBytes = 31 * 4;

struct OuterOffsets {
    std::size_t ip_off = 0;
    std::size_t udp_off = 0;
    std::size_t geneve_off = 0;
    std::size_t opts_off = 0; // first option byte
    std::size_t opts_len = 0; // Geneve opt area bytes
};

// Parses the outer Eth/IPv4/UDP(6081)/Geneve headers. Every offset is
// validated against the packet before use; malformed frames (including
// an options area running past the end) return nullopt.
std::optional<OuterOffsets> locate_geneve(const Packet& pkt)
{
    const auto* eth = pkt.try_header_at<EthernetHeader>(0);
    if (!eth || eth->ether_type() != static_cast<std::uint16_t>(EtherType::Ipv4)) {
        return std::nullopt;
    }
    OuterOffsets off;
    off.ip_off = sizeof(EthernetHeader);
    const auto* ip = pkt.try_header_at<Ipv4Header>(off.ip_off);
    if (!ip || ip->version() != 4 || ip->ihl_bytes() < 20 || ip->is_fragment() ||
        ip->proto != static_cast<std::uint8_t>(IpProto::Udp)) {
        return std::nullopt;
    }
    off.udp_off = off.ip_off + static_cast<std::size_t>(ip->ihl_bytes());
    const auto* udp = pkt.try_header_at<UdpHeader>(off.udp_off);
    if (!udp || udp->dst() != kGenevePort) return std::nullopt;
    off.geneve_off = off.udp_off + sizeof(UdpHeader);
    const auto* gnv = pkt.try_header_at<GeneveHeader>(off.geneve_off);
    if (!gnv) return std::nullopt;
    off.opts_off = off.geneve_off + sizeof(GeneveHeader);
    off.opts_len = static_cast<std::size_t>(gnv->opt_len_bytes());
    if (off.opts_off + off.opts_len > pkt.size()) return std::nullopt;
    return off;
}

// Walks the Geneve option TLVs looking for the INT option. `opts_off`
// and `opts_len` have been bounds-checked by locate_geneve; each TLV's
// own length is validated against the region here.
std::optional<IntLocation> find_in_options(const Packet& pkt, const OuterOffsets& off)
{
    std::size_t o = off.opts_off;
    const std::size_t end = off.opts_off + off.opts_len;
    while (o < end) {
        if (o + sizeof(GeneveOptionHeader) > end) return std::nullopt; // truncated TLV
        const auto* opt = pkt.checked_header_at<GeneveOptionHeader>(o, OVSX_SITE);
        if (!opt) return std::nullopt;
        const std::size_t opt_total =
            sizeof(GeneveOptionHeader) + static_cast<std::size_t>(opt->body_len_bytes());
        if (o + opt_total > end) return std::nullopt; // oversized TLV length
        if (opt->opt_class() == kIntOptClass && opt->type == kIntOptType) {
            if (opt->body_len_bytes() < static_cast<int>(sizeof(IntMetadata))) {
                return std::nullopt;
            }
            const auto* meta =
                pkt.checked_header_at<IntMetadata>(o + sizeof(GeneveOptionHeader), OVSX_SITE);
            if (!meta) return std::nullopt;
            const std::size_t rec_bytes =
                static_cast<std::size_t>(opt->body_len_bytes()) - sizeof(IntMetadata);
            if (rec_bytes != static_cast<std::size_t>(meta->hop_count) * sizeof(IntHopRecord)) {
                return std::nullopt; // hop count disagrees with the TLV length
            }
            IntLocation loc;
            loc.geneve_off = off.geneve_off;
            loc.opt_off = o;
            loc.opt_len = opt_total;
            loc.hop_count = meta->hop_count;
            loc.max_hops = meta->max_hops;
            loc.flags = meta->flags;
            return loc;
        }
        o += opt_total;
    }
    return std::nullopt;
}

// Applies a +/- delta to the outer lengths after the options area
// changed size: Geneve option length, UDP length, IPv4 total length +
// header checksum. The outer UDP checksum is cleared — the option is
// rewritten at every hop and UDP/IPv4 permits checksum 0.
void fix_outer_lengths(Packet& pkt, const OuterOffsets& off, int delta)
{
    auto* gnv = pkt.checked_header_at<GeneveHeader>(off.geneve_off, OVSX_SITE);
    auto* udp = pkt.checked_header_at<UdpHeader>(off.udp_off, OVSX_SITE);
    auto* ip = pkt.checked_header_at<Ipv4Header>(off.ip_off, OVSX_SITE);
    if (!gnv || !udp || !ip) return;
    const int opt_words = (static_cast<int>(gnv->opt_len_bytes()) + delta) / 4;
    gnv->ver_optlen =
        static_cast<std::uint8_t>((gnv->ver_optlen & 0xc0) | (opt_words & 0x3f));
    udp->set_len(static_cast<std::uint16_t>(static_cast<int>(udp->len()) + delta));
    udp->csum_be = 0;
    ip->set_total_len(static_cast<std::uint16_t>(static_cast<int>(ip->total_len()) + delta));
    ip->csum_be = 0;
    ip->csum_be = host_to_be16(internet_checksum(
        {pkt.data() + off.ip_off, static_cast<std::size_t>(ip->ihl_bytes())}));
}

// Opens `n` bytes of room at `at` (shifting the tail right).
void insert_gap(Packet& pkt, std::size_t at, std::size_t n)
{
    const std::size_t old_size = pkt.size();
    pkt.append_zeros(n);
    std::memmove(pkt.data() + at + n, pkt.data() + at, old_size - at);
    std::memset(pkt.data() + at, 0, n);
}

// Removes `n` bytes at `at` (shifting the tail left).
void remove_span(Packet& pkt, std::size_t at, std::size_t n)
{
    std::memmove(pkt.data() + at, pkt.data() + at + n, pkt.size() - at - n);
    pkt.truncate(pkt.size() - n);
}

} // namespace

std::optional<IntLocation> int_find(const Packet& pkt)
{
    const auto off = locate_geneve(pkt);
    if (!off) return std::nullopt;
    return find_in_options(pkt, *off);
}

bool int_attach(Packet& pkt, std::uint8_t max_hops)
{
    const auto off = locate_geneve(pkt);
    if (!off) return false;
    if (find_in_options(pkt, *off)) return false; // already present
    const std::size_t grow = sizeof(GeneveOptionHeader) + sizeof(IntMetadata);
    if (off->opts_len + grow > kGeneveMaxOptBytes) return false;
    if (max_hops > kIntMaxHopsLimit) max_hops = kIntMaxHopsLimit;

    // Append the option after any existing options.
    const std::size_t at = off->opts_off + off->opts_len;
    insert_gap(pkt, at, grow);
    auto* opt = pkt.checked_header_at<GeneveOptionHeader>(at, OVSX_SITE);
    auto* meta =
        pkt.checked_header_at<IntMetadata>(at + sizeof(GeneveOptionHeader), OVSX_SITE);
    if (!opt || !meta) return false;
    opt->opt_class_be = host_to_be16(kIntOptClass);
    opt->type = kIntOptType;
    opt->rsvd_len = 0;
    opt->set_body_len_bytes(sizeof(IntMetadata));
    meta->hop_count = 0;
    meta->max_hops = max_hops;
    meta->flags = 0;
    meta->reserved = 0;
    fix_outer_lengths(pkt, *off, static_cast<int>(grow));
    return true;
}

bool int_stamp(Packet& pkt, const IntHop& hop)
{
    const auto off = locate_geneve(pkt);
    if (!off) return false;
    const auto loc = find_in_options(pkt, *off);
    if (!loc) return false;

    const std::size_t body =
        loc->opt_len - sizeof(GeneveOptionHeader) + sizeof(IntHopRecord);
    if (loc->hop_count >= loc->max_hops || body > kIntMaxBodyBytes ||
        off->opts_len + sizeof(IntHopRecord) > kGeneveMaxOptBytes) {
        auto* meta = pkt.checked_header_at<IntMetadata>(
            loc->opt_off + sizeof(GeneveOptionHeader), OVSX_SITE);
        if (meta) meta->flags |= kIntFlagTruncated;
        return false;
    }

    const std::size_t at = loc->opt_off + loc->opt_len; // after the last record
    insert_gap(pkt, at, sizeof(IntHopRecord));
    auto* rec = pkt.checked_header_at<IntHopRecord>(at, OVSX_SITE);
    auto* opt = pkt.checked_header_at<GeneveOptionHeader>(loc->opt_off, OVSX_SITE);
    auto* meta = pkt.checked_header_at<IntMetadata>(
        loc->opt_off + sizeof(GeneveOptionHeader), OVSX_SITE);
    if (!rec || !opt || !meta) return false;
    rec->switch_id_be = host_to_be32(hop.switch_id);
    rec->ingress_tier = hop.ingress_tier;
    rec->egress_tier = hop.egress_tier;
    rec->occupancy_be = host_to_be16(hop.occupancy);
    rec->latency_ticks_be = host_to_be32(hop.latency_ticks);
    opt->set_body_len_bytes(static_cast<std::size_t>(opt->body_len_bytes()) +
                            sizeof(IntHopRecord));
    meta->hop_count = static_cast<std::uint8_t>(meta->hop_count + 1);
    fix_outer_lengths(pkt, *off, static_cast<int>(sizeof(IntHopRecord)));
    return true;
}

std::vector<IntHop> int_read(const Packet& pkt)
{
    std::vector<IntHop> hops;
    const auto loc = int_find(pkt);
    if (!loc) return hops;
    std::size_t at = loc->opt_off + sizeof(GeneveOptionHeader) + sizeof(IntMetadata);
    hops.reserve(loc->hop_count);
    for (std::uint8_t i = 0; i < loc->hop_count; ++i) {
        const auto* rec = pkt.checked_header_at<IntHopRecord>(at, OVSX_SITE);
        if (!rec) return hops;
        hops.push_back({rec->switch_id(), rec->ingress_tier, rec->egress_tier,
                        rec->occupancy(), rec->latency_ticks()});
        at += sizeof(IntHopRecord);
    }
    return hops;
}

bool int_strip(Packet& pkt)
{
    const auto off = locate_geneve(pkt);
    if (!off) return false;
    const auto loc = find_in_options(pkt, *off);
    if (!loc) return false;
    remove_span(pkt, loc->opt_off, loc->opt_len);
    fix_outer_lengths(pkt, *off, -static_cast<int>(loc->opt_len));
    return true;
}

std::vector<std::uint8_t> int_strip_bytes(std::span<const std::uint8_t> bytes)
{
    Packet p = Packet::from_bytes(bytes, /*headroom=*/0);
    if (!int_strip(p)) return {bytes.begin(), bytes.end()};
    return {p.bytes().begin(), p.bytes().end()};
}

std::vector<IntHop> int_parse_options(std::span<const std::uint8_t> opts, bool* truncated)
{
    if (truncated) *truncated = false;
    std::vector<IntHop> hops;
    std::size_t o = 0;
    while (o < opts.size()) {
        if (o + sizeof(GeneveOptionHeader) > opts.size()) return {};
        GeneveOptionHeader opt;
        std::memcpy(&opt, opts.data() + o, sizeof opt);
        const std::size_t body = static_cast<std::size_t>(opt.body_len_bytes());
        if (o + sizeof(GeneveOptionHeader) + body > opts.size()) return {};
        if (opt.opt_class() == kIntOptClass && opt.type == kIntOptType) {
            if (body < sizeof(IntMetadata)) return {};
            IntMetadata meta;
            std::memcpy(&meta, opts.data() + o + sizeof(GeneveOptionHeader), sizeof meta);
            if (body - sizeof(IntMetadata) !=
                static_cast<std::size_t>(meta.hop_count) * sizeof(IntHopRecord)) {
                return {};
            }
            if (truncated) *truncated = (meta.flags & kIntFlagTruncated) != 0;
            std::size_t at = o + sizeof(GeneveOptionHeader) + sizeof(IntMetadata);
            for (std::uint8_t i = 0; i < meta.hop_count; ++i) {
                IntHopRecord rec;
                std::memcpy(&rec, opts.data() + at, sizeof rec);
                hops.push_back({rec.switch_id(), rec.ingress_tier, rec.egress_tier,
                                rec.occupancy(), rec.latency_ticks()});
                at += sizeof(IntHopRecord);
            }
            return hops;
        }
        o += sizeof(GeneveOptionHeader) + body;
    }
    return hops;
}

bool int_stamp_hop(Packet& pkt, const IntConfig& cfg, std::uint16_t occupancy)
{
    IntHop hop;
    hop.switch_id = cfg.switch_id;
    hop.ingress_tier = cfg.tier;
    hop.egress_tier = cfg.tier;
    hop.occupancy = occupancy;
    hop.latency_ticks = static_cast<std::uint32_t>(pkt.meta().latency_ns / kIntTickNs);
    return int_stamp(pkt, hop);
}

void int_export_popped(std::uint32_t src_ip, std::uint32_t dst_ip,
                       std::span<const std::uint8_t> opts)
{
    if (opts.empty()) return;
    bool truncated = false;
    const std::vector<IntHop> hops = int_parse_options(opts, &truncated);
    if (hops.empty() && !truncated) return;
    std::vector<obs::IntHopSample> samples;
    samples.reserve(hops.size());
    for (const IntHop& h : hops) {
        samples.push_back({h.switch_id, h.ingress_tier, h.egress_tier, h.occupancy,
                           static_cast<std::int64_t>(h.latency_ticks) * kIntTickNs});
    }
    obs::int_export(src_ip, dst_ip, samples, truncated);
}

} // namespace ovsx::net

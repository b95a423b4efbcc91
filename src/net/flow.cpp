#include "net/flow.h"

#include <cstring>
#include <sstream>

#include "net/headers.h"

namespace ovsx::net {

namespace {

using detail::key_lane;
using detail::kKeyLanes;

} // namespace

std::uint64_t FlowKey::hash(std::uint64_t basis) const
{
    // Word-at-a-time hash with a splitmix64-style avalanche per lane;
    // all padding is explicitly zeroed by the constructor so hashing
    // raw memory is well-defined.
    std::uint64_t h = detail::kHashSeed ^ basis;
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        h = (h ^ detail::mix_lane(key_lane(*this, i))) * detail::kLaneMul;
    }
    h ^= h >> 32;
    return h;
}

std::string FlowKey::to_string() const
{
    std::ostringstream os;
    os << "in_port=" << in_port;
    if (recirc_id) os << ",recirc=" << recirc_id;
    if (tun_dst) {
        os << ",tun(id=" << tun_id << "," << ipv4_to_string(tun_src) << "->"
           << ipv4_to_string(tun_dst) << ")";
    }
    if (ct_state) os << ",ct_state=0x" << std::hex << int(ct_state) << std::dec
                     << ",ct_zone=" << ct_zone;
    os << "," << dl_src.to_string() << "->" << dl_dst.to_string();
    os << ",type=0x" << std::hex << dl_type << std::dec;
    if (vlan_tci) os << ",vlan=" << (vlan_tci & 0x0fff);
    if (dl_type == static_cast<std::uint16_t>(EtherType::Ipv4) ||
        dl_type == static_cast<std::uint16_t>(EtherType::Arp)) {
        os << "," << ipv4_to_string(nw_src) << "->" << ipv4_to_string(nw_dst);
    }
    if (nw_proto) os << ",proto=" << int(nw_proto);
    if (tp_src || tp_dst) os << ",tp=" << tp_src << "->" << tp_dst;
    return os.str();
}

std::uint64_t FlowMask::masked_hash(const FlowKey& key, std::uint64_t basis) const
{
    // Must stay bit-identical to apply(key).hash(basis): megaflow
    // buckets are keyed by the insert-time masked hash.
    std::uint64_t h = detail::kHashSeed ^ basis;
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        h = (h ^ detail::mix_lane(key_lane(key, i) & key_lane(bits, i))) * detail::kLaneMul;
    }
    h ^= h >> 32;
    return h;
}

FlowKey FlowMask::apply(const FlowKey& key) const
{
    FlowKey out;
    auto* o = reinterpret_cast<std::uint8_t*>(&out);
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        const std::uint64_t w = key_lane(key, i) & key_lane(bits, i);
        std::memcpy(o + i * sizeof w, &w, sizeof w);
    }
    return out;
}

bool FlowMask::matches(const FlowKey& key, const FlowKey& masked_key) const
{
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        if ((key_lane(key, i) & key_lane(bits, i)) != key_lane(masked_key, i)) return false;
    }
    return true;
}

bool FlowMask::same_masked(const FlowKey& a, const FlowKey& b) const
{
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        const std::uint64_t m = key_lane(bits, i);
        if ((key_lane(a, i) & m) != (key_lane(b, i) & m)) return false;
    }
    return true;
}

int FlowMask::exact_bytes() const
{
    const auto* m = reinterpret_cast<const std::uint8_t*>(&bits);
    int n = 0;
    for (std::size_t i = 0; i < sizeof(FlowKey); ++i) {
        if (m[i] == 0xff) ++n;
    }
    return n;
}

FlowMask FlowMask::exact()
{
    FlowMask mask;
    std::memset(static_cast<void*>(&mask.bits), 0xff, sizeof mask.bits);
    return mask;
}

FlowMask FlowMask::none() { return FlowMask{}; }

MaskPlan::MaskPlan(const FlowMask& mask)
{
    // Each zero lane multiplies by kLaneMul: into the seed before the
    // first listed lane, into the previous listed lane's mul after it.
    seed_ = detail::kHashSeed;
    std::uint64_t* mul = &seed_;
    for (std::size_t i = 0; i < kKeyLanes; ++i) {
        const std::uint64_t m = key_lane(mask.bits, i);
        if (m == 0) {
            *mul *= detail::kLaneMul;
            continue;
        }
        Lane& l = lanes_[n_++];
        l.bits = m;
        l.mul = detail::kLaneMul;
        l.index = static_cast<std::uint32_t>(i);
        mul = &l.mul;
    }
}

namespace {

// Parses L3/L4 starting at `l3_off` with EtherType `dl_type`, filling
// `key` and reporting offsets into `off`.
void parse_l3_l4(const Packet& pkt, std::size_t l3_off, std::uint16_t dl_type, FlowKey* key,
                 HeaderOffsets* off)
{
    if (off) {
        off->l3 = static_cast<int>(l3_off);
        off->dl_type = dl_type;
    }
    if (dl_type == static_cast<std::uint16_t>(EtherType::Ipv4)) {
        const auto* ip = pkt.try_header_at<Ipv4Header>(l3_off);
        if (!ip || ip->version() != 4 || ip->ihl_bytes() < 20) return;
        if (key) {
            key->nw_src = ip->src();
            key->nw_dst = ip->dst();
            key->nw_proto = ip->proto;
            key->nw_tos = ip->tos;
            key->nw_ttl = ip->ttl;
            if (ip->is_fragment()) {
                key->nw_frag = kFragAny;
                if (ip->frag_offset() != 0) key->nw_frag |= kFragLater;
            }
        }
        if (off) off->nw_proto = ip->proto;
        // L4 fields are meaningless on later fragments.
        if (ip->frag_offset() != 0) return;
        const std::size_t l4_off = l3_off + static_cast<std::size_t>(ip->ihl_bytes());
        if (off) off->l4 = static_cast<int>(l4_off);
        switch (static_cast<IpProto>(ip->proto)) {
        case IpProto::Tcp: {
            const auto* tcp = pkt.try_header_at<TcpHeader>(l4_off);
            if (tcp && key) {
                key->tp_src = tcp->src();
                key->tp_dst = tcp->dst();
                key->tcp_flags = tcp->flags;
            }
            break;
        }
        case IpProto::Udp: {
            const auto* udp = pkt.try_header_at<UdpHeader>(l4_off);
            if (udp && key) {
                key->tp_src = udp->src();
                key->tp_dst = udp->dst();
            }
            break;
        }
        case IpProto::Icmp: {
            const auto* icmp = pkt.try_header_at<IcmpHeader>(l4_off);
            if (icmp && key) {
                key->icmp_type = icmp->type;
                key->icmp_code = icmp->code;
            }
            break;
        }
        default: break;
        }
    } else if (dl_type == static_cast<std::uint16_t>(EtherType::Ipv6)) {
        const auto* ip6 = pkt.try_header_at<Ipv6Header>(l3_off);
        if (!ip6 || ip6->version() != 6) return;
        if (key) {
            key->ipv6_src = ip6->src;
            key->ipv6_dst = ip6->dst;
            key->nw_proto = ip6->next_header;
            key->nw_tos = ip6->traffic_class();
            key->nw_ttl = ip6->hop_limit;
        }
        if (off) off->nw_proto = ip6->next_header;
        const std::size_t l4_off = l3_off + sizeof(Ipv6Header);
        if (off) off->l4 = static_cast<int>(l4_off);
        switch (static_cast<IpProto>(ip6->next_header)) {
        case IpProto::Tcp: {
            const auto* tcp = pkt.try_header_at<TcpHeader>(l4_off);
            if (tcp && key) {
                key->tp_src = tcp->src();
                key->tp_dst = tcp->dst();
                key->tcp_flags = tcp->flags;
            }
            break;
        }
        case IpProto::Udp: {
            const auto* udp = pkt.try_header_at<UdpHeader>(l4_off);
            if (udp && key) {
                key->tp_src = udp->src();
                key->tp_dst = udp->dst();
            }
            break;
        }
        default: break;
        }
    } else if (dl_type == static_cast<std::uint16_t>(EtherType::Arp)) {
        const auto* arp = pkt.try_header_at<ArpHeader>(l3_off);
        if (arp && key) {
            key->nw_src = arp->spa();
            key->nw_dst = arp->tpa();
            key->nw_proto = static_cast<std::uint8_t>(arp->oper());
        }
    }
}

// Shared Ethernet/VLAN walk. Fills whichever of key/off are non-null.
void parse_common(const Packet& pkt, FlowKey* key, HeaderOffsets* off)
{
    const auto* eth = pkt.try_header_at<EthernetHeader>(0);
    if (!eth) return;
    std::uint16_t dl_type = eth->ether_type();
    std::size_t l3_off = sizeof(EthernetHeader);
    std::uint16_t vlan_tci = 0;
    if (dl_type == static_cast<std::uint16_t>(EtherType::Vlan)) {
        const auto* vlan = pkt.try_header_at<VlanHeader>(sizeof(EthernetHeader));
        if (!vlan) return;
        vlan_tci = static_cast<std::uint16_t>(vlan->tci() | 0x1000); // "present"
        dl_type = vlan->ether_type();
        l3_off += sizeof(VlanHeader);
    }
    if (key) {
        key->dl_src = eth->src;
        key->dl_dst = eth->dst;
        key->dl_type = dl_type;
        key->vlan_tci = vlan_tci;
    }
    parse_l3_l4(pkt, l3_off, dl_type, key, off);
}

} // namespace

FlowKey parse_flow(const Packet& pkt)
{
    FlowKey key;
    const PacketMeta& md = pkt.meta();
    key.in_port = md.in_port;
    key.recirc_id = md.recirc_id;
    key.ct_state = md.ct_state;
    key.ct_zone = md.ct_zone;
    key.ct_mark = md.ct_mark;
    key.tun_id = md.tunnel.tun_id;
    key.tun_src = md.tunnel.ip_src;
    key.tun_dst = md.tunnel.ip_dst;
    parse_common(pkt, &key, nullptr);
    return key;
}

HeaderOffsets locate_headers(const Packet& pkt)
{
    HeaderOffsets off;
    parse_common(pkt, nullptr, &off);
    return off;
}

bool icmp_type_is_error(std::uint8_t type)
{
    // Destination unreachable, source quench, redirect, time exceeded,
    // parameter problem — the types RFC 792 defines as citing a datagram.
    return type == 3 || type == 4 || type == 5 || type == 11 || type == 12;
}

IcmpInnerTuple parse_icmp_inner(const Packet& pkt)
{
    IcmpInnerTuple t;
    const HeaderOffsets off = locate_headers(pkt);
    if (off.l4 < 0 || off.nw_proto != static_cast<std::uint8_t>(IpProto::Icmp)) return t;
    const auto l4 = static_cast<std::size_t>(off.l4);
    const auto* icmp = pkt.try_header_at<IcmpHeader>(l4);
    if (!icmp || !icmp_type_is_error(icmp->type)) return t;

    const std::size_t inner_l3 = l4 + sizeof(IcmpHeader);
    const auto* ip = pkt.try_header_at<Ipv4Header>(inner_l3);
    if (!ip || ip->version() != 4 || ip->ihl_bytes() < 20) return t;
    if (ip->proto != static_cast<std::uint8_t>(IpProto::Tcp) &&
        ip->proto != static_cast<std::uint8_t>(IpProto::Udp)) {
        return t;
    }
    const std::size_t inner_l4 = inner_l3 + static_cast<std::size_t>(ip->ihl_bytes());
    // RFC 792 guarantees at least 8 bytes of the original L4 header,
    // enough for the port pair of either TCP or UDP.
    if (inner_l4 + 8 > pkt.size()) return t;
    const auto ports = pkt.checked_read(inner_l4, 8, OVSX_SITE);
    if (ports.empty()) return t;
    const std::uint8_t* p = ports.data();
    t.src = ip->src();
    t.dst = ip->dst();
    t.sport = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
    t.dport = static_cast<std::uint16_t>((p[2] << 8) | p[3]);
    t.proto = ip->proto;
    t.valid = true;
    return t;
}

} // namespace ovsx::net

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "net/addr.h"
#include "net/builder.h"
#include "net/checksum.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/packet_buffer.h"
#include "net/tunnel.h"

namespace ovsx::net {
namespace {

TEST(Addr, MacFormatting)
{
    MacAddr m(0x02, 0x00, 0xde, 0xad, 0xbe, 0xef);
    EXPECT_EQ(m.to_string(), "02:00:de:ad:be:ef");
    EXPECT_FALSE(m.is_broadcast());
    EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
    EXPECT_TRUE(MacAddr::broadcast().is_multicast());
    EXPECT_TRUE(MacAddr().is_zero());
}

TEST(Addr, MacFromIdIsStableAndUnicast)
{
    const auto a = MacAddr::from_id(7);
    EXPECT_EQ(a, MacAddr::from_id(7));
    EXPECT_NE(a, MacAddr::from_id(8));
    EXPECT_FALSE(a.is_multicast());
}

TEST(Addr, Ipv4RoundTrip)
{
    const auto ip = ipv4(10, 1, 2, 3);
    EXPECT_EQ(ipv4_to_string(ip), "10.1.2.3");
    EXPECT_EQ(ipv4_from_string("10.1.2.3"), ip);
    EXPECT_EQ(ipv4_from_string("10.1.2.999"), 0u);
    EXPECT_EQ(ipv4_from_string("not-an-ip"), 0u);
}

TEST(ByteOrder, Swaps)
{
    EXPECT_EQ(host_to_be16(0x1234), 0x3412);
    EXPECT_EQ(be32_to_host(host_to_be32(0xdeadbeef)), 0xdeadbeefu);
    EXPECT_EQ(be64_to_host(host_to_be64(0x0123456789abcdefULL)), 0x0123456789abcdefULL);
}

TEST(Packet, PushPullFront)
{
    Packet p(10);
    EXPECT_EQ(p.size(), 10u);
    const auto headroom = p.headroom();
    p.push_front(4);
    EXPECT_EQ(p.size(), 14u);
    EXPECT_EQ(p.headroom(), headroom - 4);
    p.pull_front(14);
    EXPECT_EQ(p.size(), 0u);
    EXPECT_THROW(p.pull_front(1), std::runtime_error);
}

TEST(Packet, HeadroomExhaustionThrows)
{
    Packet p(1, /*headroom=*/8);
    EXPECT_THROW(p.push_front(9), std::runtime_error);
    EXPECT_NO_THROW(p.push_front(8));
}

TEST(Packet, AppendAndTruncate)
{
    Packet p(0);
    const std::uint8_t data[] = {1, 2, 3};
    p.append(data);
    p.append_zeros(2);
    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p.data()[0], 1);
    EXPECT_EQ(p.data()[4], 0);
    p.truncate(2);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_THROW(p.truncate(3), std::runtime_error);
}

TEST(Packet, TryHeaderAtBounds)
{
    Packet p(sizeof(EthernetHeader));
    EXPECT_NE(p.try_header_at<EthernetHeader>(0), nullptr);
    EXPECT_EQ(p.try_header_at<EthernetHeader>(1), nullptr);
    EXPECT_EQ(p.try_header_at<Ipv4Header>(sizeof(EthernetHeader)), nullptr);
}

TEST(PacketBuffer, FromBytesDrawsARecycledBlock)
{
    {
        const Packet warm(64); // leaves one small block in this thread's cache
    }
    const std::size_t cached = buffer_cached(kSmallBlock);
    ASSERT_GT(cached, 0u);
    std::vector<std::uint8_t> frame(64);
    for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<std::uint8_t>(i + 1);
    {
        const Packet p = Packet::from_bytes(frame);
        EXPECT_EQ(buffer_cached(kSmallBlock), cached - 1);
        EXPECT_EQ(0, std::memcmp(p.data(), frame.data(), frame.size()));
    }
    EXPECT_EQ(buffer_cached(kSmallBlock), cached);
}

TEST(PacketBuffer, RecycledBlocksCarryNoStaleBytes)
{
    const std::vector<std::uint8_t> ones(1500, 0xff);
    auto zero = [](const std::uint8_t* p, std::size_t n) {
        return std::all_of(p, p + n, [](std::uint8_t b) { return b == 0; });
    };
    for (const std::size_t len : {std::size_t{64}, std::size_t{1500}}) {
        // Frees a block with every byte, headroom included, set.
        auto dirty = [&] {
            Packet d = Packet::from_bytes(std::span(ones).first(len));
            d.push_front(Packet::kDefaultHeadroom);
            std::memset(d.data(), 0xff, d.size());
        };
        // A zero-filled packet stays zero-filled on a recycled block...
        dirty();
        Packet zeroed(len);
        zeroed.push_front(Packet::kDefaultHeadroom);
        EXPECT_TRUE(zero(zeroed.data(), zeroed.size())) << len;
        // ...and a copy zeroes the headroom it does not overwrite.
        dirty();
        Packet copy = Packet::from_bytes(std::span(ones).first(len));
        copy.push_front(Packet::kDefaultHeadroom);
        EXPECT_TRUE(zero(copy.data(), Packet::kDefaultHeadroom)) << len;
    }
}

TEST(PacketBuffer, GrowsAcrossClassesAndPastThemToTheHeap)
{
    Packet p = Packet::from_bytes(std::vector<std::uint8_t>(60, 0xab));
    p.append(std::vector<std::uint8_t>(1000, 0xcd)); // small -> large block
    p.append_zeros(4000);                             // large -> heap
    ASSERT_EQ(p.size(), 5060u);
    EXPECT_EQ(p.data()[0], 0xab);
    EXPECT_EQ(p.data()[59], 0xab);
    EXPECT_EQ(p.data()[60], 0xcd);
    EXPECT_EQ(p.data()[1059], 0xcd);
    EXPECT_EQ(p.data()[5059], 0);
    const Packet copy = p;
    EXPECT_EQ(0, std::memcmp(copy.data(), p.data(), p.size()));
    EXPECT_EQ(copy.headroom(), p.headroom());
}

TEST(PacketBuffer, CacheIsBoundedPerThread)
{
    std::vector<Packet> many;
    for (std::uint32_t i = 0; i < 2 * kBlockCacheDepth; ++i) many.emplace_back(64);
    many.clear();
    EXPECT_EQ(buffer_cached(kSmallBlock), kBlockCacheDepth);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

// Recycled blocks keep AddressSanitizer's reach: the tail past a
// buffer's requested size and every cached block are poisoned.
TEST(PacketBufferDeathTest, AsanReportsReadsPastTheRequestedSize)
{
    if (!kAsan) GTEST_SKIP() << "needs an AddressSanitizer build";
    const Packet p = Packet::from_bytes(std::vector<std::uint8_t>(64, 1));
    const volatile std::uint8_t* past = p.data() + p.size();
    EXPECT_DEATH((void)*past, "AddressSanitizer");
}

TEST(PacketBufferDeathTest, AsanReportsReadsThroughARecycledBuffer)
{
    if (!kAsan) GTEST_SKIP() << "needs an AddressSanitizer build";
    const volatile std::uint8_t* stale = nullptr;
    {
        const Packet p = Packet::from_bytes(std::vector<std::uint8_t>(64, 1));
        stale = p.data();
    }
    EXPECT_DEATH((void)*stale, "AddressSanitizer");
}

TEST(Checksum, KnownVector)
{
    // Classic RFC 1071 example bytes.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    const auto sum = internet_checksum(data);
    // Folding the data together with its own checksum must yield zero.
    EXPECT_EQ(checksum_finish(checksum_partial(data, sum)), 0);
}

TEST(Checksum, OddLength)
{
    const std::uint8_t data[] = {0xab};
    EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xab00 & 0xffff));
}

TEST(Builder, UdpFrameIsWellFormed)
{
    UdpSpec spec;
    spec.src_mac = MacAddr::from_id(1);
    spec.dst_mac = MacAddr::from_id(2);
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = ipv4(10, 0, 0, 2);
    spec.src_port = 1234;
    spec.dst_port = 80;
    const Packet p = build_udp(spec);
    EXPECT_EQ(p.size(), 60u); // 14 eth + 20 ip + 8 udp + 18 payload (64B frame with FCS)

    const auto* eth = p.header_at<EthernetHeader>(0);
    EXPECT_EQ(eth->ether_type(), static_cast<std::uint16_t>(EtherType::Ipv4));
    const auto* ip = p.header_at<Ipv4Header>(14);
    EXPECT_EQ(ip->version(), 4);
    EXPECT_EQ(ip->src(), spec.src_ip);
    EXPECT_EQ(ip->proto, static_cast<std::uint8_t>(IpProto::Udp));
    // IPv4 header checksum verifies.
    EXPECT_EQ(internet_checksum({p.data() + 14, 20}), 0);
    // L4 checksum verifies.
    EXPECT_TRUE(verify_l4_csum(p, 14));
}

TEST(Builder, UdpWithVlan)
{
    UdpSpec spec;
    spec.src_mac = MacAddr::from_id(1);
    spec.dst_mac = MacAddr::from_id(2);
    spec.src_ip = ipv4(1, 1, 1, 1);
    spec.dst_ip = ipv4(2, 2, 2, 2);
    spec.vlan_tci = 100;
    const Packet p = build_udp(spec);
    const auto* eth = p.header_at<EthernetHeader>(0);
    EXPECT_EQ(eth->ether_type(), static_cast<std::uint16_t>(EtherType::Vlan));
    const auto* vlan = p.header_at<VlanHeader>(14);
    EXPECT_EQ(vlan->vid(), 100);
    EXPECT_EQ(vlan->ether_type(), static_cast<std::uint16_t>(EtherType::Ipv4));
}

TEST(Builder, TcpChecksumValid)
{
    TcpSpec spec;
    spec.src_mac = MacAddr::from_id(1);
    spec.dst_mac = MacAddr::from_id(2);
    spec.src_ip = ipv4(192, 168, 0, 1);
    spec.dst_ip = ipv4(192, 168, 0, 2);
    spec.src_port = 5555;
    spec.dst_port = 443;
    spec.flags = kTcpSyn;
    spec.payload_len = 100;
    const Packet p = build_tcp(spec);
    EXPECT_TRUE(verify_l4_csum(p, 14));
    const auto* tcp = p.header_at<TcpHeader>(34);
    EXPECT_EQ(tcp->src(), 5555);
    EXPECT_EQ(tcp->flags, kTcpSyn);
}

TEST(Builder, CorruptionBreaksChecksum)
{
    TcpSpec spec;
    spec.src_ip = ipv4(1, 2, 3, 4);
    spec.dst_ip = ipv4(4, 3, 2, 1);
    spec.payload_len = 32;
    Packet p = build_tcp(spec);
    ASSERT_TRUE(verify_l4_csum(p, 14));
    p.data()[40] ^= 0xff; // flip a payload byte
    EXPECT_FALSE(verify_l4_csum(p, 14));
    refresh_l4_csum(p, 14);
    EXPECT_TRUE(verify_l4_csum(p, 14));
}

TEST(Builder, ArpRequest)
{
    const Packet p =
        build_arp(true, MacAddr::from_id(9), ipv4(10, 0, 0, 9), MacAddr(), ipv4(10, 0, 0, 1));
    const auto* eth = p.header_at<EthernetHeader>(0);
    EXPECT_TRUE(eth->dst.is_broadcast());
    const auto* arp = p.header_at<ArpHeader>(14);
    EXPECT_EQ(arp->oper(), 1);
    EXPECT_EQ(arp->spa(), ipv4(10, 0, 0, 9));
    EXPECT_EQ(arp->tpa(), ipv4(10, 0, 0, 1));
}

TEST(Builder, RewriteThenRefreshIpv4Csum)
{
    UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = ipv4(10, 0, 0, 2);
    Packet p = build_udp(spec);
    auto* ip = p.header_at<Ipv4Header>(14);
    ip->set_dst(ipv4(10, 9, 9, 9));
    EXPECT_NE(internet_checksum({p.data() + 14, 20}), 0);
    refresh_ipv4_csum(p, 14);
    EXPECT_EQ(internet_checksum({p.data() + 14, 20}), 0);
}

// ---- malformed-frame corpus -------------------------------------------

UdpSpec corpus_udp_spec()
{
    UdpSpec s;
    s.src_mac = MacAddr::from_id(1);
    s.dst_mac = MacAddr::from_id(2);
    s.src_ip = ipv4(10, 0, 0, 1);
    s.dst_ip = ipv4(10, 0, 0, 2);
    s.src_port = 1000;
    s.dst_port = 2000;
    return s;
}

TEST(Malform, EveryCorpusEntryAppliesToSomeFrame)
{
    for (const Malformation m : all_malformations()) {
        Packet plain = build_udp(corpus_udp_spec());
        Packet geneve = plain;
        {
            TunnelKey key;
            key.tun_id = 7;
            key.ip_src = ipv4(192, 168, 0, 1);
            key.ip_dst = ipv4(192, 168, 0, 2);
            EncapParams params;
            params.outer_src_mac = MacAddr::from_id(3);
            params.outer_dst_mac = MacAddr::from_id(4);
            encapsulate(geneve, TunnelType::Geneve, key, params);
        }
        const bool applied = malform(plain, m) || malform(geneve, m);
        EXPECT_TRUE(applied) << "corpus entry " << to_string(m)
                             << " applies to neither a plain nor a Geneve UDP frame";
    }
}

TEST(Malform, ParserAndChecksumHelpersSurviveEveryEntry)
{
    for (const Malformation m : all_malformations()) {
        Packet pkt = build_udp(corpus_udp_spec());
        malform(pkt, m);
        // None of these may read out of bounds or throw; values are free.
        const FlowKey key = parse_flow(pkt);
        (void)key;
        const HeaderOffsets off = locate_headers(pkt);
        if (off.l3 >= 0) {
            (void)verify_l4_csum(pkt, static_cast<std::size_t>(off.l3));
        }
    }
}

// Regression (found by the differential fuzzer): with IHL claiming more
// bytes than total_len, `total_len - ihl` wrapped and the span handed to
// the checksum read past the frame.
TEST(Malform, BadIhlLargeDoesNotOverreadInChecksumVerify)
{
    Packet pkt = build_udp(corpus_udp_spec());
    ASSERT_TRUE(malform(pkt, Malformation::BadIhlLarge));
    EXPECT_FALSE(verify_l4_csum(pkt, 14));
    refresh_l4_csum(pkt, 14); // must be a safe no-op
}

TEST(Malform, BadIhlLargeDoesNotOverreadInIpChecksumRefresh)
{
    // The claimed header extends past the frame into tailroom, whose
    // content differs between rx paths: summing it made the refreshed
    // checksum depend on which datapath carried the packet.
    Packet pkt = build_udp(corpus_udp_spec());
    ASSERT_TRUE(malform(pkt, Malformation::BadIhlLarge));
    const std::vector<std::uint8_t> before(pkt.bytes().begin(), pkt.bytes().end());
    refresh_ipv4_csum(pkt, 14);
    const std::vector<std::uint8_t> after(pkt.bytes().begin(), pkt.bytes().end());
    EXPECT_EQ(after, before); // safe no-op, frame untouched
}

TEST(Malform, TruncationsShrinkTheFrame)
{
    Packet full = build_udp(corpus_udp_spec());
    for (const Malformation m :
         {Malformation::TruncateEth, Malformation::TruncateIp, Malformation::TruncateL4}) {
        Packet pkt = full;
        ASSERT_TRUE(malform(pkt, m)) << to_string(m);
        EXPECT_LT(pkt.size(), full.size()) << to_string(m);
    }
}

TEST(Builder, WithIpOptionsYieldsWellFormedFrame)
{
    Packet pkt = build_udp(corpus_udp_spec());
    Packet opts = with_ip_options(pkt, 8);
    ASSERT_GT(opts.size(), 0u);
    EXPECT_EQ(opts.size(), pkt.size() + 8);

    const auto* ip = opts.header_at<Ipv4Header>(14);
    EXPECT_EQ(ip->ihl_bytes(), 28);
    EXPECT_EQ(internet_checksum({opts.data() + 14, 28}), 0);
    EXPECT_TRUE(verify_l4_csum(opts, 14));

    // The flow key is unchanged: options shift the L4 header, they do
    // not alter the 5-tuple.
    const FlowKey a = parse_flow(pkt);
    const FlowKey b = parse_flow(opts);
    EXPECT_EQ(a.nw_src, b.nw_src);
    EXPECT_EQ(a.tp_src, b.tp_src);
    EXPECT_EQ(a.tp_dst, b.tp_dst);

    // Out-of-range requests are rejected.
    EXPECT_EQ(with_ip_options(pkt, 3).size(), 0u);
    EXPECT_EQ(with_ip_options(pkt, 44).size(), 0u);
}

TEST(Builder, IcmpErrorRoundTripsThroughInnerParse)
{
    Packet orig = build_udp(corpus_udp_spec());

    IcmpSpec err;
    err.src_mac = MacAddr::from_id(2);
    err.dst_mac = MacAddr::from_id(1);
    err.src_ip = ipv4(10, 0, 0, 2);
    err.dst_ip = ipv4(10, 0, 0, 1);
    err.type = 3;
    err.code = 3;
    Packet error = build_icmp_error(err, orig);
    ASSERT_GT(error.size(), 0u);

    const IcmpInnerTuple inner = parse_icmp_inner(error);
    ASSERT_TRUE(inner.valid);
    EXPECT_EQ(inner.src, ipv4(10, 0, 0, 1));
    EXPECT_EQ(inner.dst, ipv4(10, 0, 0, 2));
    EXPECT_EQ(inner.sport, 1000);
    EXPECT_EQ(inner.dport, 2000);
    EXPECT_EQ(inner.proto, 17);

    // Echo requests are not errors and carry no inner tuple.
    IcmpSpec echo = err;
    echo.type = 8;
    echo.code = 0;
    EXPECT_FALSE(parse_icmp_inner(build_icmp(echo)).valid);
}

} // namespace
} // namespace ovsx::net

// The one action encoding (kern/odp.h): encode, decode and re-encode
// are byte-identical for every ODP and OpenFlow action kind; the printer
// keeps the strings of the struct-per-action form for every kind but
// set_field, which now prints the fields it writes; and the sizes the
// flat encoding exists for stay pinned.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "kern/megaflow.h"
#include "kern/odp.h"
#include "ovs/ofproto.h"
#include "sim/rng.h"

namespace ovsx {
namespace {

using kern::OdpAction;
using kern::OdpActions;
using ovs::OfAction;
using ovs::OfActions;

// OdpAction::to_string as the struct-per-action encoding printed it.
std::string reference_string(const OdpAction& a)
{
    std::ostringstream os;
    switch (a.type) {
    case OdpAction::Type::Output: os << "output(" << a.port << ")"; break;
    case OdpAction::Type::PushVlan: os << "push_vlan(" << (a.vlan_tci & 0xfff) << ")"; break;
    case OdpAction::Type::PopVlan: os << "pop_vlan"; break;
    case OdpAction::Type::SetField: os << "set_field"; break;
    case OdpAction::Type::SetTunnel:
        os << "set_tunnel(id=" << a.tunnel.tun_id
           << ",dst=" << net::ipv4_to_string(a.tunnel.ip_dst) << ")";
        break;
    case OdpAction::Type::Ct:
        os << "ct(zone=" << a.ct.zone << (a.ct.commit ? ",commit" : "");
        if (a.ct.set_mark) os << ",mark=" << a.ct.mark;
        if (a.ct.nat.enabled) {
            os << ",nat(" << (a.ct.nat.snat ? "src=" : "dst=")
               << net::ipv4_to_string(a.ct.nat.ip);
            if (a.ct.nat.port_min) {
                os << ":" << a.ct.nat.port_min;
                if (a.ct.nat.port_max && a.ct.nat.port_max != a.ct.nat.port_min) {
                    os << "-" << a.ct.nat.port_max;
                }
            }
            os << ")";
        }
        os << ")";
        break;
    case OdpAction::Type::Recirc: os << "recirc(" << a.recirc_id << ")"; break;
    case OdpAction::Type::Meter: os << "meter(" << a.meter_id << ")"; break;
    case OdpAction::Type::Userspace: os << "userspace"; break;
    case OdpAction::Type::Drop: os << "drop"; break;
    case OdpAction::Type::GotoTable:
    case OdpAction::Type::CtResume:
    case OdpAction::Type::Controller: ADD_FAILURE() << "not a datapath kind"; break;
    }
    return os.str();
}

class Gen {
public:
    explicit Gen(std::uint64_t seed) : rng_(seed) {}

    std::uint32_t u32() { return static_cast<std::uint32_t>(rng_.next()); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(rng_.next()); }
    std::uint8_t u8() { return static_cast<std::uint8_t>(rng_.next()); }
    bool coin() { return rng_.below(2) == 1; }

    // A random rewrite: random bytes under a mask that always covers the
    // key's first and last byte, plus a few random partial bytes.
    std::pair<net::FlowKey, net::FlowMask> set_field()
    {
        net::FlowKey v;
        net::FlowMask m;
        auto* vb = reinterpret_cast<std::uint8_t*>(&v);
        auto* mb = reinterpret_cast<std::uint8_t*>(&m.bits);
        for (std::size_t i = 0; i < sizeof v; ++i) vb[i] = u8();
        mb[0] = u8() | 1;
        mb[sizeof v - 1] = u8() | 0x80;
        for (std::uint64_t n = rng_.below(12); n > 0; --n) mb[rng_.below(sizeof v)] = u8();
        return {v, m};
    }

    net::TunnelKey tunnel()
    {
        net::TunnelKey k;
        k.tun_id = rng_.next();
        k.ip_src = u32();
        k.ip_dst = u32();
        k.flags = u16();
        k.tos = u8();
        k.ttl = u8();
        return k;
    }

    kern::CtSpec ct()
    {
        kern::CtSpec s;
        s.zone = u16();
        s.commit = coin();
        s.set_mark = coin();
        s.mark = u32();
        if (coin()) {
            const std::uint16_t lo = u16();
            const std::uint16_t hi = coin() ? static_cast<std::uint16_t>(lo + rng_.below(1000)) : 0;
            s.nat = coin() ? kern::NatSpec::src(u32(), lo, hi) : kern::NatSpec::dst(u32(), lo, hi);
        }
        return s;
    }

    OdpAction odp()
    {
        switch (rng_.below(10)) {
        case 0: return OdpAction::output(u32());
        case 1: return OdpAction::push_vlan(u16());
        case 2: return OdpAction::pop_vlan();
        case 3: {
            const auto [v, m] = set_field();
            return OdpAction::set_field(v, m);
        }
        case 4: return OdpAction::set_tunnel(tunnel());
        case 5: return OdpAction::conntrack(ct());
        case 6: return OdpAction::recirc(u32());
        case 7: return OdpAction::meter(u32());
        case 8: return OdpAction::userspace();
        default: return OdpAction::drop();
        }
    }

    OfAction of()
    {
        switch (rng_.below(10)) {
        case 0: return OfAction::output(u32());
        case 1: {
            const auto [v, m] = set_field();
            return OfAction::set_field(v, m);
        }
        case 2: return OfAction::push_vlan(u16());
        case 3: return OfAction::pop_vlan();
        case 4: return OfAction::set_tunnel(tunnel());
        case 5: return OfAction::conntrack(ct(), coin() ? -1 : u8());
        case 6: return OfAction::goto_table(u8());
        case 7: return OfAction::meter(u32());
        case 8: return OfAction::controller();
        default: return OfAction::drop();
        }
    }

    std::size_t length() { return rng_.below(9); }

private:
    sim::Rng rng_;
};

void expect_same_ct(const kern::CtSpec& got, const kern::CtSpec& want)
{
    EXPECT_EQ(got.zone, want.zone);
    EXPECT_EQ(got.commit, want.commit);
    EXPECT_EQ(got.set_mark, want.set_mark);
    EXPECT_EQ(got.mark, want.mark);
    EXPECT_EQ(got.nat, want.nat);
}

// A decoded action holds what was encoded; a rewrite keeps only its
// masked value.
template <typename A>
void expect_same_action(const A& got, const A& want)
{
    ASSERT_EQ(got.type, want.type);
    EXPECT_EQ(got.port, want.port);
    EXPECT_EQ(got.vlan_tci, want.vlan_tci);
    EXPECT_EQ(got.set_value, want.set_mask.apply(want.set_value));
    EXPECT_EQ(got.set_mask, want.set_mask);
    EXPECT_EQ(got.tunnel, want.tunnel);
    expect_same_ct(got.ct, want.ct);
    EXPECT_EQ(got.meter_id, want.meter_id);
}

TEST(ActionCodec, OdpRoundTripIsByteIdenticalForEveryKind)
{
    Gen gen(0x0d9);
    for (int round = 0; round < 2000; ++round) {
        std::vector<OdpAction> want;
        for (std::size_t n = gen.length(); n > 0; --n) want.push_back(gen.odp());
        OdpActions encoded;
        encoded.insert(encoded.end(), want.begin(), want.end());

        const std::vector<OdpAction> decoded(encoded.begin(), encoded.end());
        ASSERT_EQ(decoded.size(), want.size());
        ASSERT_EQ(encoded.size(), want.size());
        EXPECT_EQ(encoded.empty(), want.empty());
        for (std::size_t i = 0; i < want.size(); ++i) {
            expect_same_action(decoded[i], want[i]);
            EXPECT_EQ(decoded[i].recirc_id, want[i].recirc_id);
            EXPECT_EQ(encoded[i].type, want[i].type);
        }
        OdpActions again;
        for (const OdpAction& a : decoded) again.push_back(a);
        ASSERT_TRUE(std::equal(encoded.bytes().begin(), encoded.bytes().end(),
                               again.bytes().begin(), again.bytes().end()));

        // The printer keeps the old strings for every kind but set_field.
        std::size_t i = 0;
        for (kern::ActionCursor c = encoded.cursor(); !c.done(); c.next(), ++i) {
            if (want[i].type == OdpAction::Type::SetField) {
                EXPECT_EQ(c.to_string().rfind("set(", 0), 0u) << c.to_string();
            } else {
                EXPECT_EQ(c.to_string(), reference_string(want[i]));
            }
        }
    }
}

TEST(ActionCodec, OfRoundTripIsByteIdenticalForEveryKind)
{
    Gen gen(0x0f);
    for (int round = 0; round < 2000; ++round) {
        OfActions encoded;
        std::vector<OfAction> want;
        for (std::size_t n = gen.length(); n > 0; --n) {
            want.push_back(gen.of());
            encoded.push_back(want.back());
        }
        const std::vector<OfAction> decoded(encoded.begin(), encoded.end());
        ASSERT_EQ(decoded.size(), want.size());
        ASSERT_EQ(encoded.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            expect_same_action(decoded[i], want[i]);
            EXPECT_EQ(decoded[i].ct_table, want[i].ct_table);
            EXPECT_EQ(decoded[i].table, want[i].table);
        }
        const OfActions again(encoded);
        OfActions reencoded;
        reencoded.insert(reencoded.end(), decoded.begin(), decoded.end());
        EXPECT_TRUE(reencoded == encoded);
        EXPECT_TRUE(again == encoded);
    }
}

TEST(ActionCodec, PrintsEveryKind)
{
    net::TunnelKey tkey;
    tkey.tun_id = 7;
    tkey.ip_dst = net::ipv4(10, 0, 0, 2);
    kern::CtSpec nat{.zone = 3, .commit = true, .set_mark = true, .mark = 9,
                     .nat = kern::NatSpec::src(net::ipv4(10, 0, 0, 1), 1000, 2000)};
    kern::CtSpec plain{.zone = 1};
    const OdpActions list = {OdpAction::output(3),         OdpAction::push_vlan(0x1005),
                             OdpAction::pop_vlan(),        OdpAction::set_tunnel(tkey),
                             OdpAction::conntrack(nat),    OdpAction::conntrack(plain),
                             OdpAction::recirc(4),         OdpAction::meter(2),
                             OdpAction::userspace(),       OdpAction::drop()};
    EXPECT_EQ(kern::actions_to_string(list),
              "output(3),push_vlan(5),pop_vlan,set_tunnel(id=7,dst=10.0.0.2),"
              "ct(zone=3,commit,mark=9,nat(src=10.0.0.1:1000-2000)),ct(zone=1),recirc(4),"
              "meter(2),userspace,drop");
    EXPECT_EQ(kern::actions_to_string({}), "drop");

    net::FlowKey v;
    net::FlowMask m;
    v.nw_ttl = 9;
    m.bits.nw_ttl = 0xff;
    EXPECT_EQ(kern::actions_to_string({OdpAction::set_field(v, m)}), "set(nw_ttl=9)");
    v.nw_src = net::ipv4(192, 168, 1, 7);
    m.bits.nw_src = 0xffffff00;
    v.nw_tos = 0xb8;
    m.bits.nw_tos = 0xfc;
    v.dl_dst = net::MacAddr::from_id(5);
    m.bits.dl_dst = net::MacAddr::broadcast();
    EXPECT_EQ(kern::actions_to_string({OdpAction::set_field(v, m), OdpAction::output(1)}),
              "set(dl_dst=02:00:00:00:00:05,nw_src=192.168.1.0/255.255.255.0,nw_tos=184/0xfc,"
              "nw_ttl=9),output(1)");
}

TEST(ActionCodec, PinnedSizes)
{
    const OdpActions output = {OdpAction::output(1)};
    EXPECT_LE(output.bytes().size(), 8u);
    const OdpActions ct_recirc = {OdpAction::conntrack({.zone = 5, .commit = true}),
                                  OdpAction::recirc(9)};
    EXPECT_LE(ct_recirc.bytes().size(), 40u);
    EXPECT_LE(sizeof(kern::CachedFlow), 160u);
    EXPECT_EQ(sizeof(OdpActions), 24u);
    EXPECT_EQ(sizeof(OfActions), 24u);
    // A rewrite of one byte keeps that byte, not two whole keys.
    net::FlowKey v;
    net::FlowMask m;
    m.bits.nw_ttl = 0xff;
    const OdpActions ttl = {OdpAction::set_field(v, m)};
    EXPECT_EQ(ttl.bytes().size(), 6u);
}

// Lists past the in-place capacity move to the heap; copies, moves and
// assignments between the two forms keep every byte.
TEST(ActionCodec, InlineAndHeapListsCopyAndMove)
{
    Gen gen(0xb0f);
    for (int round = 0; round < 500; ++round) {
        OdpActions a, b;
        for (std::size_t n = gen.length(); n > 0; --n) a.push_back(gen.odp());
        for (std::size_t n = gen.length(); n > 0; --n) b.push_back(gen.odp());
        const std::vector<std::uint8_t> a_bytes(a.bytes().begin(), a.bytes().end());
        const std::vector<std::uint8_t> b_bytes(b.bytes().begin(), b.bytes().end());
        auto same = [](const OdpActions& l, const std::vector<std::uint8_t>& want) {
            return std::vector<std::uint8_t>(l.bytes().begin(), l.bytes().end()) == want;
        };

        OdpActions copy = a;
        EXPECT_TRUE(same(copy, a_bytes));
        copy = b;
        EXPECT_TRUE(same(copy, b_bytes));
        OdpActions moved = std::move(copy);
        EXPECT_TRUE(same(moved, b_bytes));
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move): moved-from is empty
        moved = std::move(a);
        EXPECT_TRUE(same(moved, a_bytes));
        moved.insert(moved.end(), b.begin(), b.end());
        std::vector<std::uint8_t> both = a_bytes;
        both.insert(both.end(), b_bytes.begin(), b_bytes.end());
        EXPECT_TRUE(same(moved, both));
        moved.clear();
        EXPECT_TRUE(moved.empty());
        EXPECT_EQ(kern::actions_to_string(moved), "drop");
    }
}

} // namespace
} // namespace ovsx

#include "kern/odp.h"

#include <algorithm>
#include <sstream>

namespace ovsx::kern {

namespace {

// Ct payload: u16 zone, u8 flags, u32 mark, u32 nat ip, u16 port min,
// u16 port max.
constexpr std::size_t kCtLen = 15;
constexpr std::uint8_t kCtCommit = 0x01;
constexpr std::uint8_t kCtSetMark = 0x02;
constexpr std::uint8_t kCtNat = 0x04;
constexpr std::uint8_t kCtSnat = 0x08;

// SetTunnel payload: u64 id, u32 src, u32 dst, u16 flags, u8 tos, u8 ttl.
constexpr std::size_t kTunnelLen = 20;

template <typename T>
std::uint8_t* put_le(std::uint8_t* p, T v)
{
    std::memcpy(p, &v, sizeof v);
    return p + sizeof v;
}

template <typename T>
T get_le(const std::uint8_t* p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

const std::uint8_t* key_bytes(const net::FlowKey& k)
{
    return reinterpret_cast<const std::uint8_t*>(&k);
}

// Visits the runs of a SetField payload: fn(offset, n, value, mask).
template <typename Fn>
void for_each_run(const std::uint8_t* p, std::size_t len, Fn&& fn)
{
    const std::uint8_t* end = p + len;
    while (p < end) {
        const std::uint8_t off = p[0];
        const std::uint8_t n = p[1];
        fn(off, n, p + 2, p + 2 + n);
        p += 2 + 2 * std::size_t{n};
    }
}

// One FlowKey field of a set_field, as "name=value" or
// "name=value/mask" when the mask covers part of it.
void print_field(std::ostream& os, const net::FlowField& f, const std::uint8_t* value,
                 const std::uint8_t* mask)
{
    const bool whole = std::all_of(mask + f.offset, mask + f.offset + f.len,
                                   [](std::uint8_t b) { return b == 0xff; });
    auto print = [&](const std::uint8_t* bytes, bool is_mask) {
        const std::uint8_t* b = bytes + f.offset;
        switch (f.kind) {
        case net::FlowField::Kind::Ipv4:
            os << net::ipv4_to_string(get_le<std::uint32_t>(b));
            break;
        case net::FlowField::Kind::Mac: {
            net::MacAddr mac;
            std::memcpy(mac.bytes.data(), b, mac.bytes.size());
            os << mac.to_string();
            break;
        }
        case net::FlowField::Kind::Ipv6: {
            net::Ipv6Addr ip;
            std::memcpy(ip.bytes.data(), b, ip.bytes.size());
            os << ip.to_string();
            break;
        }
        case net::FlowField::Kind::Int:
        case net::FlowField::Kind::Pad: {
            std::uint64_t v = 0;
            std::memcpy(&v, b, f.len); // host (little-endian) order, as the key holds it
            if (is_mask) {
                os << "0x" << std::hex << v << std::dec;
            } else {
                os << v;
            }
            break;
        }
        }
    };
    os << f.name << "=";
    print(value, false);
    if (!whole) {
        os << "/";
        print(mask, true);
    }
}

} // namespace

std::uint8_t* ActionBuf::grow(std::size_t n)
{
    const std::size_t size = this->size();
    const std::size_t need = size + n;
    if (!heap() && need <= kInline) {
        raw_[kInline] = static_cast<std::uint8_t>(need);
        return raw_ + size;
    }
    std::uint8_t* block = heap() ? heap_ptr() : nullptr;
    const std::size_t cap = heap() ? heap_word(kCapAt) : 0;
    if (need > cap) {
        // The first spill sizes the block exactly (a copied flow's list
        // is never appended to); appending past it doubles.
        const std::size_t new_cap = heap() ? std::max(need, 2 * cap) : need;
        auto* grown = new std::uint8_t[new_cap];
        std::memcpy(grown, data(), size);
        if (heap()) delete[] block;
        block = grown;
        std::memcpy(raw_, &block, sizeof block);
        raw_[kInline] = kHeap;
        set_heap_word(kCapAt, static_cast<std::uint32_t>(new_cap));
    }
    set_heap_word(kSizeAt, static_cast<std::uint32_t>(need));
    return block + size;
}

// ---- decoder ------------------------------------------------------------

net::TunnelKey ActionCursor::tunnel() const
{
    const std::uint8_t* p = p_ + 2;
    net::TunnelKey k;
    k.tun_id = get_le<std::uint64_t>(p);
    k.ip_src = get_le<std::uint32_t>(p + 8);
    k.ip_dst = get_le<std::uint32_t>(p + 12);
    k.flags = get_le<std::uint16_t>(p + 16);
    k.tos = p[18];
    k.ttl = p[19];
    return k;
}

CtSpec ActionCursor::ct() const
{
    const std::uint8_t* p = p_ + 2;
    CtSpec s;
    s.zone = get_le<std::uint16_t>(p);
    const std::uint8_t flags = p[2];
    s.commit = flags & kCtCommit;
    s.set_mark = flags & kCtSetMark;
    s.mark = get_le<std::uint32_t>(p + 3);
    s.nat.enabled = flags & kCtNat;
    s.nat.snat = flags & kCtSnat;
    s.nat.ip = get_le<std::uint32_t>(p + 7);
    s.nat.port_min = get_le<std::uint16_t>(p + 11);
    s.nat.port_max = get_le<std::uint16_t>(p + 13);
    return s;
}

void ActionCursor::set_field(net::FlowKey* value, net::FlowMask* mask) const
{
    auto* v = reinterpret_cast<std::uint8_t*>(value);
    auto* m = reinterpret_cast<std::uint8_t*>(&mask->bits);
    for_each_run(p_ + 2, p_[1], [&](std::uint8_t off, std::uint8_t n, const std::uint8_t* rv,
                                     const std::uint8_t* rm) {
        std::memcpy(v + off, rv, n);
        std::memcpy(m + off, rm, n);
    });
}

void ActionCursor::rewrite(net::FlowKey* key) const
{
    auto* k = reinterpret_cast<std::uint8_t*>(key);
    for_each_run(p_ + 2, p_[1], [&](std::uint8_t off, std::uint8_t n, const std::uint8_t* rv,
                                     const std::uint8_t* rm) {
        for (std::uint8_t i = 0; i < n; ++i) {
            k[off + i] = static_cast<std::uint8_t>((k[off + i] & ~rm[i]) | rv[i]);
        }
    });
}

std::string ActionCursor::to_string() const
{
    std::ostringstream os;
    switch (attr()) {
    case ActionAttr::Output: os << "output(" << port() << ")"; break;
    case ActionAttr::PushVlan: os << "push_vlan(" << (vlan_tci() & 0xfff) << ")"; break;
    case ActionAttr::PopVlan: os << "pop_vlan"; break;
    case ActionAttr::SetField: {
        net::FlowKey value;
        net::FlowMask mask;
        set_field(&value, &mask);
        const std::uint8_t* m = key_bytes(mask.bits);
        os << "set(";
        bool first = true;
        for (const net::FlowField& f : net::kFlowFields) {
            if (std::all_of(m + f.offset, m + f.offset + f.len,
                            [](std::uint8_t b) { return b == 0; })) {
                continue;
            }
            if (!first) os << ",";
            first = false;
            print_field(os, f, key_bytes(value), m);
        }
        os << ")";
        break;
    }
    case ActionAttr::SetTunnel: {
        const net::TunnelKey t = tunnel();
        os << "set_tunnel(id=" << t.tun_id << ",dst=" << net::ipv4_to_string(t.ip_dst) << ")";
        break;
    }
    case ActionAttr::Ct: {
        const CtSpec c = ct();
        os << "ct(zone=" << c.zone << (c.commit ? ",commit" : "");
        if (c.set_mark) os << ",mark=" << c.mark;
        if (c.nat.enabled) {
            os << ",nat(" << (c.nat.snat ? "src=" : "dst=") << net::ipv4_to_string(c.nat.ip);
            if (c.nat.port_min) {
                os << ":" << c.nat.port_min;
                if (c.nat.port_max && c.nat.port_max != c.nat.port_min) {
                    os << "-" << c.nat.port_max;
                }
            }
            os << ")";
        }
        os << ")";
        break;
    }
    case ActionAttr::Recirc: os << "recirc(" << recirc_id() << ")"; break;
    case ActionAttr::Meter: os << "meter(" << meter_id() << ")"; break;
    case ActionAttr::Userspace: os << "userspace"; break;
    case ActionAttr::Drop: os << "drop"; break;
    case ActionAttr::GotoTable: os << "goto_table(" << int(table()) << ")"; break;
    case ActionAttr::CtResume: os << "ct_resume(" << int(table()) << ")"; break;
    case ActionAttr::Controller: os << "controller"; break;
    }
    return os.str();
}

// ---- encoder ------------------------------------------------------------

namespace attr {

void push_vlan(ActionBuf& b, std::uint16_t tci) { put_le(b.put(ActionAttr::PushVlan, 2), tci); }

void set_field(ActionBuf& b, const net::FlowKey& value, const net::FlowMask& mask)
{
    // Only the bytes the mask covers, value already masked: each run of
    // covered bytes is {offset, n, value & mask, mask}. A key of 104
    // bytes yields at most 210 payload bytes (52 one-byte runs).
    constexpr std::size_t kKey = sizeof(net::FlowKey);
    const std::uint8_t* v = key_bytes(value);
    const std::uint8_t* m = key_bytes(mask.bits);
    std::uint8_t runs[255];
    std::size_t len = 0;
    for (std::size_t i = 0; i < kKey;) {
        std::size_t n = 0;
        while (i + n < kKey && m[i + n]) ++n;
        if (n == 0) {
            ++i;
            continue;
        }
        runs[len] = static_cast<std::uint8_t>(i);
        runs[len + 1] = static_cast<std::uint8_t>(n);
        for (std::size_t j = 0; j < n; ++j) {
            runs[len + 2 + j] = static_cast<std::uint8_t>(v[i + j] & m[i + j]);
            runs[len + 2 + n + j] = m[i + j];
        }
        len += 2 + 2 * n;
        i += n;
    }
    std::memcpy(b.put(ActionAttr::SetField, len), runs, len);
}

void set_tunnel(ActionBuf& b, const net::TunnelKey& key)
{
    std::uint8_t* p = b.put(ActionAttr::SetTunnel, kTunnelLen);
    p = put_le(p, key.tun_id);
    p = put_le(p, key.ip_src);
    p = put_le(p, key.ip_dst);
    p = put_le(p, key.flags);
    p[0] = key.tos;
    p[1] = key.ttl;
}

void ct(ActionBuf& b, const CtSpec& spec)
{
    std::uint8_t* p = b.put(ActionAttr::Ct, kCtLen);
    p = put_le(p, spec.zone);
    *p++ = static_cast<std::uint8_t>((spec.commit ? kCtCommit : 0) |
                                     (spec.set_mark ? kCtSetMark : 0) |
                                     (spec.nat.enabled ? kCtNat : 0) |
                                     (spec.nat.snat ? kCtSnat : 0));
    p = put_le(p, spec.mark);
    p = put_le(p, spec.nat.ip);
    p = put_le(p, spec.nat.port_min);
    put_le(p, spec.nat.port_max);
}

void u32(ActionBuf& b, ActionAttr t, std::uint32_t v) { put_le(b.put(t, 4), v); }

void table(ActionBuf& b, ActionAttr t, std::uint8_t table) { b.put(t, 1)[0] = table; }

void empty(ActionBuf& b, ActionAttr t) { b.put(t, 0); }

} // namespace attr

// ---- OdpAction codec ------------------------------------------------------

void OdpAction::encode(ActionBuf& b) const
{
    switch (type) {
    case Type::Output: attr::u32(b, type, port); break;
    case Type::PushVlan: attr::push_vlan(b, vlan_tci); break;
    case Type::SetField: attr::set_field(b, set_value, set_mask); break;
    case Type::SetTunnel: attr::set_tunnel(b, tunnel); break;
    case Type::Ct: attr::ct(b, ct); break;
    case Type::Recirc: attr::u32(b, type, recirc_id); break;
    case Type::Meter: attr::u32(b, type, meter_id); break;
    case Type::PopVlan:
    case Type::Userspace:
    case Type::Drop: attr::empty(b, type); break;
    case Type::GotoTable:
    case Type::CtResume:
    case Type::Controller: assert(!"an OpenFlow-only kind is not an OdpAction"); break;
    }
}

OdpAction OdpAction::decode(const ActionCursor& c)
{
    OdpAction a;
    a.type = c.attr();
    switch (a.type) {
    case Type::Output: a.port = c.port(); break;
    case Type::PushVlan: a.vlan_tci = c.vlan_tci(); break;
    case Type::SetField: c.set_field(&a.set_value, &a.set_mask); break;
    case Type::SetTunnel: a.tunnel = c.tunnel(); break;
    case Type::Ct: a.ct = c.ct(); break;
    case Type::Recirc: a.recirc_id = c.recirc_id(); break;
    case Type::Meter: a.meter_id = c.meter_id(); break;
    case Type::PopVlan:
    case Type::Userspace:
    case Type::Drop: break;
    case Type::GotoTable:
    case Type::CtResume:
    case Type::Controller: assert(!"an OpenFlow-only attribute in a datapath list"); break;
    }
    return a;
}

std::string actions_to_string(const OdpActions& actions)
{
    if (actions.empty()) return "drop";
    std::string out;
    for (ActionCursor c = actions.cursor(); !c.done(); c.next()) {
        if (!out.empty()) out += ",";
        out += c.to_string();
    }
    return out;
}

} // namespace ovsx::kern

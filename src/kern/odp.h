// ODP ("Open vSwitch datapath") actions: the flat action language both
// datapaths execute — the kernel module (dpif-kernel baseline) and the
// userspace datapath (dpif-netdev). ofproto compiles OpenFlow actions
// down to these.
//
// Encoding: an action list is one byte buffer of attributes laid back to
// back, each {type: u8, len: u8, payload: len bytes}, as the Linux
// module keeps a flow's netlink actions in one sw_flow_actions block and
// ovs-vswitchd keeps a rule's ofpacts. Payloads are unaligned and read
// through memcpy. OdpAction is only the factory and decoded-value type:
// executors, the printer and the differential's digest walk the bytes
// with one ActionCursor. OpenFlow rules (ovs::OfActions) use the same
// encoding, with three attribute types of their own that ofproto
// translates before anything is installed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "net/flow.h"
#include "net/tunnel_key.h"

namespace ovsx::kern {

// NAT half of a ct() action: ct(commit,nat(src=ip:min-max)) and the
// dst= equivalent. Both conntrack implementations (kern/conntrack.h and
// ovs/ct.h) honor it with identical semantics — the differential
// harness diffs their end state entry by entry.
struct NatSpec {
    bool enabled = false;
    bool snat = false;          // true = SNAT (rewrite source), false = DNAT
    std::uint32_t ip = 0;       // translated address (0 = keep original)
    std::uint16_t port_min = 0; // 0 = keep the original port
    std::uint16_t port_max = 0; // 0 = exactly port_min (no range)

    friend bool operator==(const NatSpec&, const NatSpec&) = default;

    static NatSpec src(std::uint32_t ip, std::uint16_t port_min = 0, std::uint16_t port_max = 0)
    {
        return {true, true, ip, port_min, port_max};
    }
    static NatSpec dst(std::uint32_t ip, std::uint16_t port_min = 0, std::uint16_t port_max = 0)
    {
        return {true, false, ip, port_min, port_max};
    }
};

struct CtSpec {
    std::uint16_t zone = 0;
    bool commit = false;
    bool set_mark = false; // ct(commit,mark=M): store M on the connection
    std::uint32_t mark = 0;
    NatSpec nat;
};

// Attribute types, each with its payload. The first ten are the datapath
// actions (OdpAction::Type); the last three occur only in OpenFlow rules,
// which ofproto translates before anything is installed.
enum class ActionAttr : std::uint8_t {
    Output,     // forward out of a datapath port: u32 port
    PushVlan,   // push an 802.1Q tag: u16 TCI
    PopVlan,    // empty
    SetField,   // masked header rewrite: runs of {u8 offset, u8 n, n value
                // bytes, n mask bytes} over FlowKey
    SetTunnel,  // stage tunnel metadata for a later tunnel-port Output: u64
                // id, u32 src, u32 dst, u16 flags, u8 tos, u8 ttl
    Ct,         // run conntrack, then continue: u16 zone, u8 flags, u32
                // mark, u32 nat ip, u16 port min, u16 port max
    Recirc,     // re-run the pipeline: u32 recirc id
    Meter,      // police, may drop: u32 meter id
    Userspace,  // punt to userspace (controller / slow path): empty
    Drop,       // empty
    GotoTable,  // u8 table
    CtResume,   // u8 table: follows a Ct; translation recirculates into it
    Controller, // empty: becomes Userspace
};

// The depth of a datapath's punt queue: the packets Userspace actions
// hand to ovs-vswitchd wait there. A punt that finds the queue full
// drops its packet and counts it in the datapath's `lost`, as Linux
// counts an action upcall that fails in n_lost, so a controller flow
// under load holds a bounded number of packets.
inline constexpr std::size_t kPuntQueueDepth = 128;

// One action list in the attribute encoding: a byte buffer that keeps up
// to kInline bytes in place (an output, ct plus recirc, ct plus output)
// and longer lists in one heap block, so a flow or rule holding a short
// list owns no allocation of its own.
class ActionBuf {
public:
    static constexpr std::size_t kInline = 23;

    ActionBuf() noexcept { raw_[kInline] = 0; }
    ActionBuf(const ActionBuf& o) : ActionBuf() { append(o.data(), o.size()); }
    ActionBuf(ActionBuf&& o) noexcept { take(o); }
    ActionBuf& operator=(const ActionBuf& o)
    {
        if (this != &o) {
            set_size(0);
            append(o.data(), o.size());
        }
        return *this;
    }
    ActionBuf& operator=(ActionBuf&& o) noexcept
    {
        if (this != &o) {
            release();
            take(o);
        }
        return *this;
    }
    ~ActionBuf() { release(); }

    const std::uint8_t* data() const { return heap() ? heap_ptr() : raw_; }
    std::size_t size() const { return heap() ? heap_word(kSizeAt) : raw_[kInline]; }
    std::span<const std::uint8_t> bytes() const { return {data(), size()}; }

    void append(const std::uint8_t* p, std::size_t n)
    {
        if (n) std::memcpy(grow(n), p, n);
    }
    // Appends an attribute header {t, len} and returns its payload.
    std::uint8_t* put(ActionAttr t, std::size_t len)
    {
        std::uint8_t* p = grow(2 + len);
        p[0] = static_cast<std::uint8_t>(t);
        p[1] = static_cast<std::uint8_t>(len);
        return p + 2;
    }
    void clear() { set_size(0); }

    friend bool operator==(const ActionBuf& a, const ActionBuf& b)
    {
        return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
    }

private:
    // Heap form: raw_[kInline] is kHeap, the block pointer sits at byte
    // 0 and the u32 size and capacity at kSizeAt and kCapAt.
    static constexpr std::uint8_t kHeap = 0xff;
    static constexpr std::size_t kSizeAt = 8;
    static constexpr std::size_t kCapAt = 12;

    bool heap() const { return raw_[kInline] == kHeap; }
    std::uint8_t* heap_ptr() const
    {
        std::uint8_t* p;
        std::memcpy(&p, raw_, sizeof p);
        return p;
    }
    std::uint32_t heap_word(std::size_t at) const
    {
        std::uint32_t v;
        std::memcpy(&v, raw_ + at, sizeof v);
        return v;
    }
    void set_heap_word(std::size_t at, std::uint32_t v) { std::memcpy(raw_ + at, &v, sizeof v); }
    void set_size(std::size_t n)
    {
        if (heap()) {
            set_heap_word(kSizeAt, static_cast<std::uint32_t>(n));
        } else {
            raw_[kInline] = static_cast<std::uint8_t>(n);
        }
    }
    void take(ActionBuf& o) noexcept
    {
        std::memcpy(raw_, o.raw_, sizeof raw_);
        o.raw_[kInline] = 0;
    }
    void release() noexcept
    {
        if (heap()) delete[] heap_ptr();
        raw_[kInline] = 0;
    }
    // Extends the buffer by n bytes and returns where they start.
    std::uint8_t* grow(std::size_t n);

    alignas(8) std::uint8_t raw_[kInline + 1];
};

static_assert(sizeof(ActionBuf) == 24);

class ActionCursor;

struct OdpAction {
    // One of ActionAttr's datapath kinds (Output through Drop).
    using Type = ActionAttr;

    Type type = Type::Drop;
    std::uint32_t port = 0;
    std::uint16_t vlan_tci = 0;
    net::FlowKey set_value;
    net::FlowMask set_mask;
    net::TunnelKey tunnel;
    CtSpec ct;
    std::uint32_t recirc_id = 0;
    std::uint32_t meter_id = 0;

    static OdpAction output(std::uint32_t port)
    {
        OdpAction a;
        a.type = Type::Output;
        a.port = port;
        return a;
    }
    static OdpAction push_vlan(std::uint16_t tci)
    {
        OdpAction a;
        a.type = Type::PushVlan;
        a.vlan_tci = tci;
        return a;
    }
    static OdpAction pop_vlan()
    {
        OdpAction a;
        a.type = Type::PopVlan;
        return a;
    }
    static OdpAction set_field(const net::FlowKey& value, const net::FlowMask& mask)
    {
        OdpAction a;
        a.type = Type::SetField;
        a.set_value = value;
        a.set_mask = mask;
        return a;
    }
    static OdpAction set_tunnel(const net::TunnelKey& key)
    {
        OdpAction a;
        a.type = Type::SetTunnel;
        a.tunnel = key;
        return a;
    }
    static OdpAction conntrack(const CtSpec& spec)
    {
        OdpAction a;
        a.type = Type::Ct;
        a.ct = spec;
        return a;
    }
    static OdpAction recirc(std::uint32_t id)
    {
        OdpAction a;
        a.type = Type::Recirc;
        a.recirc_id = id;
        return a;
    }
    static OdpAction meter(std::uint32_t id)
    {
        OdpAction a;
        a.type = Type::Meter;
        a.meter_id = id;
        return a;
    }
    static OdpAction userspace()
    {
        OdpAction a;
        a.type = Type::Userspace;
        return a;
    }
    static OdpAction drop()
    {
        OdpAction a;
        a.type = Type::Drop;
        return a;
    }

    // The codec ActionList uses.
    void encode(ActionBuf& b) const;
    static OdpAction decode(const ActionCursor& c);
    static void skip(ActionCursor& c);
};

// Walks the attributes of one encoded list. It is the one decoder:
// the executors read payloads through it in place, and the decoded
// OdpAction/OfAction values, the printer and the digest all come from
// it.
class ActionCursor {
public:
    ActionCursor() = default;
    explicit ActionCursor(std::span<const std::uint8_t> bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size())
    {
    }

    bool done() const { return p_ == end_; }
    // True when the current attribute is the list's last.
    bool last() const { return p_ + 2 + p_[1] == end_; }
    void next() { p_ += 2 + p_[1]; }
    const std::uint8_t* pos() const { return p_; }

    ActionAttr attr() const { return static_cast<ActionAttr>(p_[0]); }
    // The current attribute, header included.
    std::span<const std::uint8_t> attr_bytes() const { return {p_, std::size_t{2} + p_[1]}; }

    // Payload readers, each valid for the attribute types named.
    std::uint32_t port() const { return read<std::uint32_t>(0); }      // Output
    std::uint32_t recirc_id() const { return read<std::uint32_t>(0); } // Recirc
    std::uint32_t meter_id() const { return read<std::uint32_t>(0); }  // Meter
    std::uint16_t vlan_tci() const { return read<std::uint16_t>(0); }  // PushVlan
    std::uint8_t table() const { return p_[2]; }                       // GotoTable, CtResume
    net::TunnelKey tunnel() const;                                     // SetTunnel
    CtSpec ct() const;                                                 // Ct
    // SetField: the masked value and its mask (other bytes stay zero).
    void set_field(net::FlowKey* value, net::FlowMask* mask) const;
    // SetField: rewrites the masked bytes of `key` in place.
    void rewrite(net::FlowKey* key) const;

    // The attribute as ovs-dpctl prints it, e.g. "output(2)" or
    // "set(nw_ttl=9)".
    std::string to_string() const;

private:
    template <typename T>
    T read(std::size_t at) const
    {
        T v;
        std::memcpy(&v, p_ + 2 + at, sizeof v);
        return v;
    }

    const std::uint8_t* p_ = nullptr;
    const std::uint8_t* end_ = nullptr;
};

// Attribute writers: the one encoder. Each appends {type, len, payload}.
namespace attr {
void push_vlan(ActionBuf& b, std::uint16_t tci);
void set_field(ActionBuf& b, const net::FlowKey& value, const net::FlowMask& mask);
void set_tunnel(ActionBuf& b, const net::TunnelKey& key);
void ct(ActionBuf& b, const CtSpec& spec);
// Output, Recirc, Meter.
void u32(ActionBuf& b, ActionAttr t, std::uint32_t v);
// GotoTable, CtResume.
void table(ActionBuf& b, ActionAttr t, std::uint8_t table);
// PopVlan, Userspace, Drop, Controller.
void empty(ActionBuf& b, ActionAttr t);
} // namespace attr

// A list of actions of decoded type A (OdpAction or OfAction) stored in
// the attribute encoding. It keeps the builder surface of the vector it
// replaced: brace lists, push_back, insert at the end, size, empty, and
// const iteration or indexing that yield decoded values.
template <typename A>
class ActionList {
public:
    using value_type = A;

    class const_iterator {
    public:
        using value_type = A;
        using difference_type = std::ptrdiff_t;
        using reference = A;
        using pointer = void;
        using iterator_category = std::input_iterator_tag;

        const_iterator() = default;
        explicit const_iterator(ActionCursor c) : c_(c) {}
        A operator*() const { return A::decode(c_); }
        const_iterator& operator++()
        {
            A::skip(c_);
            return *this;
        }
        const_iterator operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(const const_iterator& a, const const_iterator& b)
        {
            return a.c_.pos() == b.c_.pos();
        }

    private:
        ActionCursor c_;
    };

    ActionList() = default;
    ActionList(std::initializer_list<A> list)
    {
        for (const A& a : list) push_back(a);
    }

    void push_back(const A& a) { a.encode(buf_); }
    // Appends [first, last); only the end is a valid position.
    template <typename It>
    void insert([[maybe_unused]] const_iterator pos, It first, It last)
    {
        assert(pos == end());
        for (; first != last; ++first) push_back(*first);
    }
    // Appends one encoded attribute as it is.
    void append(std::span<const std::uint8_t> attr) { buf_.append(attr.data(), attr.size()); }

    bool empty() const { return buf_.size() == 0; }
    std::size_t size() const
    {
        std::size_t n = 0;
        for (auto it = begin(); it != end(); ++it) ++n;
        return n;
    }
    A operator[](std::size_t i) const
    {
        auto it = begin();
        while (i--) ++it;
        return *it;
    }
    const_iterator begin() const { return const_iterator(cursor()); }
    const_iterator end() const
    {
        const std::span<const std::uint8_t> b = bytes();
        return const_iterator(ActionCursor(b.subspan(b.size())));
    }
    void clear() { buf_.clear(); }

    ActionCursor cursor() const { return ActionCursor(bytes()); }
    std::span<const std::uint8_t> bytes() const { return buf_.bytes(); }

    friend bool operator==(const ActionList&, const ActionList&) = default;

private:
    ActionBuf buf_;
};

inline void OdpAction::skip(ActionCursor& c) { c.next(); }

using OdpActions = ActionList<OdpAction>;

std::string actions_to_string(const OdpActions& actions);

// One installed datapath flow, as dumped for end-state comparison
// (OVS_FLOW_CMD_DUMP equivalent). `key` is already masked.
struct OdpFlowEntry {
    net::FlowKey key;
    net::FlowMask mask;
    OdpActions actions;

    // Canonical form for cross-datapath diffing and sorting.
    std::string to_string() const
    {
        return "key{" + key.to_string() + "} mask{" + mask.bits.to_string() +
               "} actions{" + actions_to_string(actions) + "}";
    }
};

} // namespace ovsx::kern

// Packet buffer with headroom for encapsulation, plus the sideband
// metadata that travels with a packet through the datapaths.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "net/packet_buffer.h"
#include "net/tunnel_key.h"
#include "san/packet_ledger.h"

namespace ovsx::net {

// Offload/state metadata attached to a packet, the moral equivalent of
// OVS's dp_packet metadata plus the offload bits an skb would carry.
struct PacketMeta {
    std::uint32_t in_port = 0;   // datapath port the packet arrived on
    std::uint32_t rxhash = 0;    // RSS hash (0 = not computed)
    bool rxhash_valid = false;
    std::uint32_t recirc_id = 0; // recirculation context

    TunnelKey tunnel;            // decapsulated tunnel metadata

    // Connection-tracking results (set by a ct() action).
    std::uint8_t ct_state = 0;
    std::uint16_t ct_zone = 0;
    std::uint32_t ct_mark = 0;

    // Checksum offload state: if true, L4 checksum is logically valid /
    // will be filled by hardware, and software must not spend cycles on it.
    bool csum_verified = false; // rx direction
    bool csum_tx_offload = false; // tx direction

    // TCP segmentation offload: when > 0 the packet is an oversized TSO
    // "super-segment" that hardware (or the peer vhost) will split into
    // MSS-sized segments.
    std::uint16_t tso_segsz = 0;

    // Cumulative virtual latency experienced by this packet (ns). Stages
    // that charge an execution context also add here, so end-to-end
    // latency distributions (Figs. 10/11) fall out of the same model.
    std::int64_t latency_ns = 0;

    // obs trace-span identity: 0 = untraced (the common case; every
    // tracer call site guards on it, so tracing costs one compare per
    // hop when off). Assigned by the differential harness / tests.
    std::uint32_t trace_id = 0;
};

// The bytes live in one buffer from net::buffer_alloc (a recycled
// block for every frame up to 2 KiB): [0, headroom) is headroom and the
// packet is [headroom, headroom + size). The buffer's requested end is
// headroom + size at construction, moved by append; the block tail past
// it is not part of the packet (ASan builds poison it).
class Packet {
public:
    static constexpr std::size_t kDefaultHeadroom = 128;

    Packet() : Packet(0) {}

    // A zero-filled packet of `len` bytes.
    explicit Packet(std::size_t len, std::size_t headroom = kDefaultHeadroom)
        : Packet(Uninit{}, len, headroom)
    {
        std::memset(buf_.data, 0, end_);
    }

    // A copy of `bytes`: only the headroom is zeroed, the rest is
    // overwritten.
    static Packet from_bytes(std::span<const std::uint8_t> bytes,
                             std::size_t headroom = kDefaultHeadroom)
    {
        Packet p(Uninit{}, bytes.size(), headroom);
        std::memset(p.buf_.data, 0, headroom);
        if (!bytes.empty()) std::memcpy(p.data(), bytes.data(), bytes.size());
        return p;
    }

    // The san packet ledger tracks ownership per buffer, not per
    // metadata block (TSO segmentation copies meta() between packets):
    // copies are tracked clones, moves carry the identity, destruction
    // retires the record.
    ~Packet()
    {
        san::skb_retire(san_id_);
        buffer_free(buf_);
    }

    Packet(const Packet& other)
        : buf_(buffer_alloc(other.end_)), end_(other.end_), off_(other.off_), len_(other.len_),
          meta_(other.meta_), san_id_(san::skb_clone(other.san_id_, OVSX_SITE))
    {
        if (end_) std::memcpy(buf_.data, other.buf_.data, end_);
    }
    Packet& operator=(const Packet& other)
    {
        if (this == &other) return *this;
        san::skb_retire(san_id_);
        if (buf_.cap >= other.end_) {
            buffer_resize(buf_, end_, other.end_);
        } else {
            buffer_free(buf_);
            buf_ = buffer_alloc(other.end_);
        }
        end_ = other.end_;
        if (end_) std::memcpy(buf_.data, other.buf_.data, end_);
        off_ = other.off_;
        len_ = other.len_;
        meta_ = other.meta_;
        san_id_ = san::skb_clone(other.san_id_, OVSX_SITE);
        return *this;
    }
    Packet(Packet&& other) noexcept
        : buf_(std::exchange(other.buf_, {})), end_(std::exchange(other.end_, 0)),
          off_(other.off_), len_(other.len_), meta_(other.meta_),
          san_id_(std::exchange(other.san_id_, 0))
    {
    }
    Packet& operator=(Packet&& other) noexcept
    {
        if (this == &other) return *this;
        san::skb_retire(san_id_);
        buffer_free(buf_);
        buf_ = std::exchange(other.buf_, {});
        end_ = std::exchange(other.end_, 0);
        off_ = other.off_;
        len_ = other.len_;
        meta_ = other.meta_;
        san_id_ = std::exchange(other.san_id_, 0);
        return *this;
    }

    std::uint8_t* data() { return buf_.data + off_; }
    const std::uint8_t* data() const { return buf_.data + off_; }
    std::size_t size() const { return len_; }
    std::size_t headroom() const { return off_; }

    std::span<const std::uint8_t> bytes() const { return {data(), len_}; }
    std::span<std::uint8_t> bytes() { return {data(), len_}; }

    // Prepends `n` bytes (uninitialised) using headroom; returns pointer
    // to the new front. Throws if headroom is exhausted.
    std::uint8_t* push_front(std::size_t n)
    {
        if (n > off_) throw std::runtime_error("Packet: headroom exhausted");
        off_ -= n;
        len_ += n;
        return data();
    }

    // Removes `n` bytes from the front (e.g. when stripping an outer
    // header). Throws if the packet is shorter than `n`.
    void pull_front(std::size_t n)
    {
        if (n > len_) throw std::runtime_error("Packet: pull beyond end");
        off_ += n;
        len_ -= n;
    }

    // Appends `n` zero bytes at the tail.
    void append_zeros(std::size_t n)
    {
        set_end(off_ + len_ + n);
        std::memset(buf_.data + off_ + len_, 0, n);
        len_ += n;
    }

    void append(std::span<const std::uint8_t> bytes)
    {
        if (bytes.empty()) return;
        set_end(off_ + len_ + bytes.size());
        std::memcpy(buf_.data + off_ + len_, bytes.data(), bytes.size());
        len_ += bytes.size();
    }

    void truncate(std::size_t new_len)
    {
        if (new_len > len_) throw std::runtime_error("Packet: truncate grows packet");
        len_ = new_len;
    }

    // Returns a typed view of the header at byte `offset`. The caller is
    // responsible for having validated the offset against size(); a
    // checked variant is provided for parser use.
    template <typename T> T* header_at(std::size_t offset)
    {
        return reinterpret_cast<T*>(data() + offset);
    }
    template <typename T> const T* header_at(std::size_t offset) const
    {
        return reinterpret_cast<const T*>(data() + offset);
    }

    // Checked view: returns nullptr when the header would run past the
    // end of the packet.
    template <typename T> const T* try_header_at(std::size_t offset) const
    {
        if (offset + sizeof(T) > len_) return nullptr;
        return header_at<T>(offset);
    }
    template <typename T> T* try_header_at(std::size_t offset)
    {
        if (offset + sizeof(T) > len_) return nullptr;
        return header_at<T>(offset);
    }

    // Bounds-checked views for paths that compute offsets from
    // packet-derived fields (IHL, total_len, inner offsets). In-bounds
    // access costs one compare; out of bounds reports a san violation
    // at the call site — with the packet's ownership trail and which
    // buffer region the access would have hit — and yields an empty
    // span / nullptr so the caller can bail.
    std::span<const std::uint8_t> checked_read(std::size_t offset, std::size_t n,
                                               san::Site site) const
    {
        if (oob(offset, n)) [[unlikely]] {
            san::report_packet_oob("read", offset, n, len_, off_, end_, san_id_,
                                   site);
            return {};
        }
        return {data() + offset, n};
    }
    std::span<std::uint8_t> checked_write(std::size_t offset, std::size_t n,
                                          san::Site site)
    {
        if (oob(offset, n)) [[unlikely]] {
            san::report_packet_oob("write", offset, n, len_, off_, end_, san_id_,
                                   site);
            return {};
        }
        return {data() + offset, n};
    }
    template <typename T>
    const T* checked_header_at(std::size_t offset, san::Site site) const
    {
        if (oob(offset, sizeof(T))) [[unlikely]] {
            san::report_packet_oob("read", offset, sizeof(T), len_, off_, end_,
                                   san_id_, site);
            return nullptr;
        }
        return header_at<T>(offset);
    }
    template <typename T> T* checked_header_at(std::size_t offset, san::Site site)
    {
        if (oob(offset, sizeof(T))) [[unlikely]] {
            san::report_packet_oob("write", offset, sizeof(T), len_, off_, end_,
                                   san_id_, site);
            return nullptr;
        }
        return header_at<T>(offset);
    }

    // san packet-ledger identity (0 = untracked).
    std::uint64_t san_id() const { return san_id_; }
    void set_san_id(std::uint64_t id) { san_id_ = id; }

    PacketMeta& meta() { return meta_; }
    const PacketMeta& meta() const { return meta_; }

private:
    struct Uninit {};
    Packet(Uninit, std::size_t len, std::size_t headroom)
        : buf_(buffer_alloc(headroom + len)), end_(headroom + len), off_(headroom), len_(len)
    {
    }

    bool oob(std::size_t offset, std::size_t n) const
    {
        return n > len_ || offset > len_ - n;
    }

    // Moves the buffer's requested end to `end`, keeping the bytes
    // before it; grows into a larger buffer when `end` exceeds the
    // capacity.
    void set_end(std::size_t end)
    {
        if (end > buf_.cap) {
            const Buffer grown = buffer_alloc(end);
            if (end_) std::memcpy(grown.data, buf_.data, end_);
            buffer_free(buf_);
            buf_ = grown;
        } else {
            buffer_resize(buf_, end_, end);
        }
        end_ = end;
    }

    Buffer buf_;
    std::size_t end_ = 0; // requested end of buf_
    std::size_t off_;
    std::size_t len_;
    PacketMeta meta_;
    std::uint64_t san_id_ = 0;
};

} // namespace ovsx::net

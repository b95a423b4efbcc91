#include "ovs/ct.h"

#include "net/flow.h"
#include "net/headers.h"
#include "net/rewrite.h"
#include "obs/coverage.h"
#include "obs/trace.h"

namespace ovsx::ovs {

using kern::CtEntry;
using kern::NatBinding;

UserspaceConntrack::UserspaceConntrack(const sim::CostModel& costs, std::uint32_t shards)
    : CtTable({"ovs.uct.shard", "ovs.uct.zones", "ovs.uct", "uct.entry", "uct.nat"}, shards),
      costs_(costs)
{
}

std::uint8_t UserspaceConntrack::process(net::Packet& pkt, const net::FlowKey& key,
                                         const kern::CtSpec& spec, sim::ExecContext& ctx,
                                         sim::Nanos now)
{
    ctx.charge(costs_.emc_hit); // hash + lookup, comparable to an EMC probe
    OVSX_COVERAGE_CTX(ctx, "userspace_ct.lookup");

    auto finish_unlocked = [&](std::uint8_t s) {
        pkt.meta().ct_state = s;
        pkt.meta().ct_zone = spec.zone;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns,
                       (s & net::kCtStateInvalid) ? "invalid"
                       : (s & net::kCtStateEstablished) ? "established"
                       : (s & net::kCtStateRelated)     ? "related"
                                                        : "new",
                       spec.zone, s);
        }
        return s;
    };

    // Stateless rejections touch no table state: no lock needed.
    if (key.nw_proto != 6 && key.nw_proto != 17 && key.nw_proto != 1) {
        return finish_unlocked(net::kCtStateTracked | net::kCtStateInvalid);
    }
    if (key.nw_frag & net::kFragLater) {
        return finish_unlocked(net::kCtStateTracked | net::kCtStateInvalid);
    }

    bool icmp_error = false;
    CtTuple lookup;
    if (key.nw_proto == 1 && net::icmp_type_is_error(key.icmp_type)) {
        icmp_error = true;
        const net::IcmpInnerTuple inner = net::parse_icmp_inner(pkt);
        if (!inner.valid) return finish_unlocked(net::kCtStateTracked | net::kCtStateInvalid);
        lookup = CtTuple{inner.src, inner.dst, inner.sport, inner.dport, inner.proto, spec.zone};
    } else {
        lookup = CtTuple::from_key(key, spec.zone);
    }
    return routed(lookup, icmp_error, key, spec, [&](std::uint32_t home) {
        return process_routed(pkt, key, spec, lookup, icmp_error, ctx, now, home);
    });
}

std::uint8_t UserspaceConntrack::process_routed(net::Packet& pkt, const net::FlowKey& key,
                                                const kern::CtSpec& spec, const CtTuple& tuple,
                                                bool icmp_error, sim::ExecContext& ctx,
                                                sim::Nanos now, std::uint32_t home)
{
    std::uint8_t state = net::kCtStateTracked;
    auto finish = [&](std::uint8_t s) {
        pkt.meta().ct_state = s;
        pkt.meta().ct_zone = spec.zone;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns,
                       (s & net::kCtStateInvalid) ? "invalid"
                       : (s & net::kCtStateEstablished) ? "established"
                       : (s & net::kCtStateRelated)     ? "related"
                                                        : "new",
                       spec.zone, s);
        }
        return s;
    };

    // ICMP errors are RELATED to the connection their payload cites;
    // errors citing nothing we track are invalid. Mirrors
    // kern::Conntrack::process so all datapaths classify identically.
    // `tuple` is the cited inner tuple.
    Ref ref;
    if (icmp_error) {
        const CtEntry* rel = lookup_routed(tuple, home, ref);
        if (!rel) return finish(state | net::kCtStateInvalid);
        pkt.meta().ct_mark = rel->mark;
        return finish(state | net::kCtStateRelated);
    }

    const bool is_rst = key.nw_proto == 6 && (key.tcp_flags & net::kTcpRst) != 0;
    if (CtEntry* hit = lookup_routed(tuple, home, ref)) {
        CtEntry& e = *hit;
        const bool is_reply = (tuple == e.reply) && !(e.reply == e.orig);
        if (is_reply) {
            e.seen_reply = true;
            state |= net::kCtStateReply;
        }
        state |= e.confirmed ? net::kCtStateEstablished : net::kCtStateNew;
        if (spec.commit && !e.confirmed) e.confirmed = true;
        if (spec.commit && spec.set_mark) e.mark = spec.mark;
        if (key.nw_proto == 6) e.tcp_flags_seen |= key.tcp_flags;
        e.packets++;
        touch_routed(ref, e, now);
        pkt.meta().ct_mark = e.mark;
        if (e.nat) apply_nat(pkt, e, is_reply, ctx);
        if (is_rst) {
            // RST tears the connection down; the next SYN starts NEW.
            erase_routed(ref);
        }
        return finish(state);
    }
    if (is_rst) {
        // RST for a connection we never saw: untrackable.
        return finish(state | net::kCtStateInvalid);
    }

    // New connection: its zone slot is reserved before anything is
    // built, and released again if it cannot be tracked.
    if (!reserve_zone_slot(spec.zone)) return finish(state | net::kCtStateInvalid);

    state |= net::kCtStateNew;
    CtEntry entry;
    entry.orig = tuple;
    entry.confirmed = spec.commit;
    if (spec.commit && spec.set_mark) entry.mark = spec.mark;
    entry.packets = 1;
    entry.last_seen = now;
    if (key.nw_proto == 6) entry.tcp_flags_seen = key.tcp_flags;

    // Compute the reply tuple, binding NAT (and allocating a port from
    // the requested range) if the connection commits. Must match
    // kern::Conntrack::process exactly, down to the allocation order.
    CtTuple reply = tuple.reversed();
    if (spec.nat.enabled && spec.commit) {
        NatBinding nat;
        nat.snat = spec.nat.snat;
        nat.ip = spec.nat.ip;
        if (spec.nat.port_min != 0) {
            nat.port = alloc_nat_port_routed(tuple, spec.nat);
            if (nat.port == 0) {
                // Range exhausted: the connection is untrackable.
                release_zone_slot(spec.zone);
                OVSX_COVERAGE_CTX(ctx, "userspace_ct.nat_port_exhausted");
                return finish(static_cast<std::uint8_t>((state & ~net::kCtStateNew) |
                                                        net::kCtStateInvalid));
            }
        }
        entry.nat = nat;
        reply = kern::nat_reply_tuple(tuple, spec.nat, nat.port);
    }
    entry.reply = reply;

    const CtEntry& e = insert_routed(home, entry, now);
    ctx.charge(costs_.emc_hit); // insertion

    pkt.meta().ct_mark = e.mark;
    if (e.nat) apply_nat(pkt, e, /*is_reply=*/false, ctx);
    return finish(state);
}

void UserspaceConntrack::apply_nat(net::Packet& pkt, const CtEntry& entry, bool is_reply,
                                   sim::ExecContext& ctx)
{
    const NatBinding& nat = *entry.nat;
    net::FlowKey value;
    net::FlowMask mask;
    if (!is_reply) {
        if (nat.snat) {
            value.nw_src = nat.ip;
            mask.bits.nw_src = nat.ip ? 0xffffffff : 0;
            value.tp_src = nat.port;
            mask.bits.tp_src = nat.port ? 0xffff : 0;
        } else {
            value.nw_dst = nat.ip;
            mask.bits.nw_dst = nat.ip ? 0xffffffff : 0;
            value.tp_dst = nat.port;
            mask.bits.tp_dst = nat.port ? 0xffff : 0;
        }
    } else {
        // Undo the translation for reply traffic: restore the original
        // tuple the initiator expects.
        if (nat.snat) {
            value.nw_dst = entry.orig.src;
            mask.bits.nw_dst = 0xffffffff;
            value.tp_dst = entry.orig.sport;
            mask.bits.tp_dst = 0xffff;
        } else {
            value.nw_src = entry.orig.dst;
            mask.bits.nw_src = 0xffffffff;
            value.tp_src = entry.orig.dport;
            mask.bits.tp_src = 0xffff;
        }
    }
    const int fields = net::apply_rewrite(pkt, value, mask);
    if (fields > 0) {
        ctx.charge(costs_.csum(64)); // header checksum repair share
    }
}

} // namespace ovsx::ovs

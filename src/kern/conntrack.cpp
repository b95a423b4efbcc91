#include "kern/conntrack.h"

#include "net/headers.h"
#include "net/rewrite.h"
#include "obs/coverage.h"

namespace ovsx::kern {

Conntrack::Conntrack(const sim::CostModel& costs, std::uint32_t shards)
    : CtTable({"kern.ct.shard", "kern.ct.zones", "kern.ct", "ct.entry", "ct.nat"}, shards),
      costs_(costs)
{
}

CtResult Conntrack::process(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                            sim::ExecContext& ctx, sim::Nanos now)
{
    // Hash + lookup cost, comparable to a flow-table probe.
    ctx.charge(costs_.kdp_flow_probe);
    OVSX_COVERAGE_CTX(ctx, "ct.lookup");
    const std::uint16_t zone = spec.zone;

    // Stateless rejections touch no table state: no lock needed.
    // Only TCP/UDP/ICMP are tracked; later fragments are untrackable.
    if (key.nw_proto != 6 && key.nw_proto != 17 && key.nw_proto != 1) {
        CtResult res;
        res.state = net::kCtStateTracked | net::kCtStateInvalid;
        pkt.meta().ct_state = res.state;
        pkt.meta().ct_zone = zone;
        return res;
    }
    if (key.nw_frag & net::kFragLater) {
        CtResult res;
        res.state = net::kCtStateTracked | net::kCtStateInvalid;
        pkt.meta().ct_state = res.state;
        pkt.meta().ct_zone = zone;
        return res;
    }

    // Route to the home shard: the first index probe uses the ICMP-cited
    // inner tuple for ICMP errors, the packet tuple otherwise.
    bool icmp_error = false;
    CtTuple lookup;
    if (key.nw_proto == 1 && net::icmp_type_is_error(key.icmp_type)) {
        icmp_error = true;
        const net::IcmpInnerTuple inner = net::parse_icmp_inner(pkt);
        if (!inner.valid) {
            CtResult res;
            res.state = net::kCtStateTracked | net::kCtStateInvalid;
            pkt.meta().ct_state = res.state;
            pkt.meta().ct_zone = zone;
            return res;
        }
        lookup = CtTuple{inner.src, inner.dst, inner.sport, inner.dport, inner.proto, zone};
    } else {
        lookup = CtTuple::from_key(key, zone);
    }
    return routed(lookup, icmp_error, key, spec, [&](std::uint32_t home) {
        return process_routed(pkt, key, spec, lookup, icmp_error, ctx, now, home);
    });
}

CtResult Conntrack::process_routed(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                                   const CtTuple& tuple, bool icmp_error, sim::ExecContext& ctx,
                                   sim::Nanos now, std::uint32_t home)
{
    const std::uint16_t zone = spec.zone;

    CtResult res;
    res.state = net::kCtStateTracked;

    auto finish_invalid = [&] {
        res.state |= net::kCtStateInvalid;
        pkt.meta().ct_state = res.state;
        pkt.meta().ct_zone = zone;
        return res;
    };

    // ICMP errors are RELATED to the connection their payload cites
    // (dest-unreachable for a tracked UDP flow, etc.); an error citing
    // nothing we track is invalid. `tuple` is the cited inner tuple.
    if (icmp_error) {
        CtEntry* rel = lookup_routed(tuple, home);
        if (!rel) return finish_invalid();
        res.state |= net::kCtStateRelated;
        res.entry = rel;
        pkt.meta().ct_state = res.state;
        pkt.meta().ct_zone = zone;
        pkt.meta().ct_mark = rel->mark;
        return res;
    }

    const bool is_rst = key.nw_proto == 6 && (key.tcp_flags & net::kTcpRst) != 0;
    if (CtEntry* hit = lookup_routed(tuple, home)) {
        CtEntry& e = *hit;
        const bool is_reply = (tuple == e.reply) && !(e.reply == e.orig);
        if (is_reply) {
            e.seen_reply = true;
            res.state |= net::kCtStateReply;
        }
        res.state |= e.confirmed ? net::kCtStateEstablished : net::kCtStateNew;
        if (spec.commit && !e.confirmed) e.confirmed = true;
        if (spec.commit && spec.set_mark) e.mark = spec.mark;
        e.packets++;
        touch_routed(e, now);
        res.entry = &e;
        pkt.meta().ct_mark = e.mark;
        if (e.nat) apply_nat(pkt, e, is_reply, ctx);
        if (is_rst) {
            // RST tears the connection down: the next SYN on this tuple
            // starts a fresh NEW connection.
            erase_routed(e);
            res.entry = nullptr;
        }
        pkt.meta().ct_state = res.state;
        pkt.meta().ct_zone = zone;
        return res;
    }
    if (is_rst) {
        // RST for a connection we never saw: untrackable.
        return finish_invalid();
    }

    // New connection: its zone slot is reserved before anything is
    // built, and released again if it cannot be tracked.
    if (!reserve_zone_slot(zone)) return finish_invalid(); // zone limit exceeded

    res.state |= net::kCtStateNew;
    CtEntry entry;
    entry.orig = tuple;
    entry.confirmed = spec.commit;
    if (spec.commit && spec.set_mark) entry.mark = spec.mark;
    entry.packets = 1;
    entry.last_seen = now;

    // Compute the reply tuple, binding NAT (and allocating a port from
    // the requested range) if the connection commits.
    CtTuple reply = tuple.reversed();
    if (spec.nat.enabled && spec.commit) {
        NatBinding nat;
        nat.snat = spec.nat.snat;
        nat.ip = spec.nat.ip;
        if (spec.nat.port_min != 0) {
            nat.port = alloc_nat_port_routed(tuple, spec.nat);
            if (nat.port == 0) {
                // Range exhausted: the connection is untrackable.
                release_zone_slot(zone);
                OVSX_COVERAGE_CTX(ctx, "ct.nat_port_exhausted");
                res.state = static_cast<std::uint8_t>(res.state & ~net::kCtStateNew);
                return finish_invalid();
            }
        }
        entry.nat = nat;
        reply = nat_reply_tuple(tuple, spec.nat, nat.port);
    }
    entry.reply = reply;

    CtEntry& e = insert_routed(home, entry, now);
    res.entry = &e;
    ctx.charge(costs_.kdp_flow_probe); // insert cost

    pkt.meta().ct_mark = e.mark;
    if (e.nat) apply_nat(pkt, e, /*is_reply=*/false, ctx);
    pkt.meta().ct_state = res.state;
    pkt.meta().ct_zone = zone;
    return res;
}

void Conntrack::apply_nat(net::Packet& pkt, const CtEntry& entry, bool is_reply,
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

} // namespace ovsx::kern

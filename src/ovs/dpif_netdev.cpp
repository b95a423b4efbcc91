#include "ovs/dpif_netdev.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "kern/kernel.h"
#include "net/hash.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/rewrite.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "ovs/netdev_afxdp.h"
#include "san/packet_ledger.h"

namespace ovsx::ovs {

DpifNetdev::DpifNetdev(kern::Kernel& host, const sim::CostModel& costs)
    : host_(host), costs_(costs), ct_(costs), netlink_(host)
{
}

std::uint32_t DpifNetdev::add_port(std::unique_ptr<Netdev> netdev)
{
    const std::uint32_t port_no = next_port_no_++;
    Port port;
    port.port_no = port_no;
    port.name = netdev->name();
    // Map the backing kernel device (if any) for underlay resolution.
    if (kern::Device* dev = host_.device(netdev->name())) {
        ifindex_to_port_[dev->ifindex()] = port_no;
    }
    port.netdev = std::move(netdev);
    ports_.emplace(port_no, std::move(port));
    return port_no;
}

std::uint32_t DpifNetdev::add_tunnel_port(const std::string& name, net::TunnelType type,
                                          std::uint32_t local_ip)
{
    const std::uint32_t port_no = next_port_no_++;
    Port port;
    port.port_no = port_no;
    port.name = name;
    port.tunnel = type;
    port.tunnel_local_ip = local_ip;
    ports_.emplace(port_no, std::move(port));
    return port_no;
}

Netdev* DpifNetdev::port_netdev(std::uint32_t port_no)
{
    auto it = ports_.find(port_no);
    return it == ports_.end() ? nullptr : it->second.netdev.get();
}

std::optional<std::uint32_t> DpifNetdev::port_by_name(const std::string& name) const
{
    for (const auto& [no, port] : ports_) {
        if (port.name == name) return no;
    }
    return std::nullopt;
}

void DpifNetdev::flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                          kern::OdpActions actions)
{
    if (pmd_ != &nonpmd_) {
        pmd_->megaflow->insert(key, mask, std::move(actions));
        return;
    }
    nonpmd_.megaflow->insert(key, mask, actions);
    for (Pmd& pmd : pmds_) pmd.megaflow->insert(key, mask, actions);
}

void DpifNetdev::flow_flush()
{
    for_each_lane([](Pmd& lane) {
        lane.megaflow->clear();
        lane.emc.clear();
    });
}

std::size_t DpifNetdev::flow_count() const
{
    if (pmds_.empty()) return nonpmd_.megaflow->flow_count();
    std::size_t n = 0;
    for (const Pmd& pmd : pmds_) n += pmd.megaflow->flow_count();
    return n;
}

std::vector<kern::OdpFlowEntry> DpifNetdev::flow_dump() const
{
    std::vector<kern::OdpFlowEntry> out;
    auto dump = [&](const MegaflowCache& mf) {
        mf.for_each_entry([&](const CachedFlow& flow, const net::FlowMask& mask) {
            out.push_back(kern::OdpFlowEntry{flow.masked_key, mask, flow.actions});
        });
    };
    if (pmds_.empty()) dump(*nonpmd_.megaflow);
    for (const Pmd& pmd : pmds_) dump(*pmd.megaflow);
    return out;
}

void DpifNetdev::san_check(san::Site site) const
{
    nonpmd_.megaflow->san_check(site);
    for (const Pmd& pmd : pmds_) pmd.megaflow->san_check(site);
    netlink_.san_check(site);
}

std::vector<const obs::PmdPerf*> DpifNetdev::perfs() const
{
    std::vector<const obs::PmdPerf*> rows;
    for (const Pmd& pmd : pmds_) {
        if (const obs::PmdPerf* perf = pmd.ctx.perf()) rows.push_back(perf);
    }
    return rows;
}

std::vector<Dpif::PmdRow> DpifNetdev::pmds() const
{
    std::vector<PmdRow> rows;
    for (const Pmd& pmd : pmds_) {
        PmdRow row{pmd.name, &pmd.ctx, {}};
        for (const Rxq& rxq : pmd.rxqs) {
            RxqRow r{port_name(rxq.port_no), rxq.queue, rxq.busy_ns, 0.0, 0};
            if (const obs::WindowedRate* wr = window_.series("rxq/" + rxq_name(rxq))) {
                // EWMA busy-ns per second -> percent of the window,
                // rounded to 2 decimals for stable text.
                const double pct = wr->ewma_per_sec() / 1e9 * 100.0;
                r.busy_pct = std::round(pct * 100.0) / 100.0;
                r.windows = wr->windows();
            }
            row.rxqs.push_back(std::move(r));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<Dpif::XskRing> DpifNetdev::xsk_rings() const
{
    std::vector<XskRing> rows;
    for (const auto& [port_no, port] : ports_) {
        auto* afxdp = dynamic_cast<NetdevAfxdp*>(port.netdev.get());
        if (!afxdp) continue;
        for (std::uint32_t q = 0; q < afxdp->n_rxq(); ++q) {
            afxdp::XskSocket& xsk = afxdp->xsk(q);
            rows.push_back({xsk.bound_dev(), xsk.bound_queue(), xsk.rx().size(),
                            xsk.tx().size(), xsk.umem().fill().size(), xsk.umem().comp().size(),
                            xsk.rx_delivered, xsk.rx_dropped_no_frame, xsk.rx_dropped_ring_full,
                            xsk.tx_completed});
        }
    }
    return rows;
}

Dpif::Rebalance DpifNetdev::rebalance()
{
    if (!maybe_rebalance(1.0)) return {false, "no improving assignment"};
    return {true, rebalance_events_.back().detail};
}

void DpifNetdev::set_now(sim::Nanos now)
{
    now_ = now;
    ct_.tick(now); // occupancy counters + amortized timer-wheel expiry
    if (window_.tick(now)) sample_window();
}

void DpifNetdev::set_window_interval(sim::Nanos interval_ns)
{
    window_.set_interval(interval_ns);
    for (const char* name : {"emc.hit", "emc.miss", "megaflow.hit", "megaflow.miss",
                             "dpif_netdev.upcall", "batch.occupancy", "batch.flush"}) {
        window_.track_coverage(name);
    }
}

void DpifNetdev::set_auto_lb(bool enabled, double min_improvement)
{
    auto_lb_ = enabled;
    auto_lb_min_improvement_ = min_improvement > 1.0 ? min_improvement : 1.0;
}

std::string DpifNetdev::port_name(std::uint32_t port_no) const
{
    auto it = ports_.find(port_no);
    return it != ports_.end() ? it->second.name : std::to_string(port_no);
}

std::string DpifNetdev::rxq_name(const Rxq& rxq) const
{
    return port_name(rxq.port_no) + ":" + std::to_string(rxq.queue);
}

void DpifNetdev::sample_window()
{
    // Series are keyed by rxq (not by owning PMD) so a rebalance does
    // not restart a queue's EWMA history mid-flight.
    for (const Pmd& pmd : pmds_) {
        window_.feed("pmd/" + pmd.name, static_cast<std::uint64_t>(pmd.ctx.total_busy()));
        for (const Rxq& rxq : pmd.rxqs) {
            window_.feed("rxq/" + rxq_name(rxq), rxq.busy_ns);
        }
    }
    if (window_.closes() == 0) return; // priming tick
    // Publish before deciding, so every rebalance event is reproducible
    // from the published windowed metrics.
    obs::windows_publish("dpif-netdev", window_.to_value());
    if (auto_lb_) maybe_rebalance(auto_lb_min_improvement_);
}

bool DpifNetdev::maybe_rebalance(double min_improvement)
{
    OVSX_COVERAGE("pmd.autolb.check");
    if (pmds_.size() < 2) return false;

    struct Item {
        Rxq rxq;
        std::size_t old_pmd = 0;
        double load = 0.0;
    };
    std::vector<Item> items;
    bool any_windowed = false;
    for (std::size_t p = 0; p < pmds_.size(); ++p) {
        for (const Rxq& rxq : pmds_[p].rxqs) {
            const obs::WindowedRate* wr = window_.series("rxq/" + rxq_name(rxq));
            const double load = wr && wr->windows() > 0 ? wr->ewma_per_sec() : 0.0;
            if (load > 0.0) any_windowed = true;
            items.push_back(Item{rxq, p, load});
        }
    }
    if (items.empty()) return false;
    if (!any_windowed) {
        // No windowed signal yet (e.g. appctl trigger before the first
        // close): fall back to lifetime busy-ns for every rxq, never mix
        // the two units within one decision.
        for (Item& it : items) it.load = static_cast<double>(it.rxq.busy_ns);
    }

    std::vector<double> cur_load(pmds_.size(), 0.0);
    for (const Item& it : items) cur_load[it.old_pmd] += it.load;
    const double cur_max = *std::max_element(cur_load.begin(), cur_load.end());

    // OVS's pmd-auto-lb greedy: heaviest rxq first onto the least-loaded
    // PMD. Ties break deterministically (port, queue / lowest index).
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        if (a.load != b.load) return a.load > b.load;
        if (a.rxq.port_no != b.rxq.port_no) return a.rxq.port_no < b.rxq.port_no;
        return a.rxq.queue < b.rxq.queue;
    });
    std::vector<double> new_load(pmds_.size(), 0.0);
    std::vector<std::vector<Rxq>> assignment(pmds_.size());
    std::size_t moves = 0;
    for (const Item& it : items) {
        const std::size_t target = static_cast<std::size_t>(
            std::min_element(new_load.begin(), new_load.end()) - new_load.begin());
        new_load[target] += it.load;
        assignment[target].push_back(it.rxq);
        if (target != it.old_pmd) ++moves;
    }
    const double new_max = *std::max_element(new_load.begin(), new_load.end());
    if (moves == 0 || !(new_max < cur_max)) return false;
    if (new_max > 0.0 && cur_max / new_max < min_improvement) return false;

    for (std::size_t p = 0; p < pmds_.size(); ++p) {
        pmds_[p].rxqs = std::move(assignment[p]);
    }
    char detail[160];
    std::snprintf(detail, sizeof detail, "moved %zu rxqs, busiest PMD load %.0f -> %.0f",
                  moves, cur_max, new_max);
    rebalance_events_.push_back(RebalanceEvent{now_, window_.closes(), detail});
    OVSX_COVERAGE("pmd.autolb.rebalance");
    return true;
}

int DpifNetdev::add_pmd(const std::string& name)
{
    Pmd pmd;
    pmd.name = name;
    pmd.ctx = sim::ExecContext(name, sim::CpuClass::User);
    // Always-on profiler, attached from birth so its class-cycle split
    // matches the context's busy() exactly.
    pmd.ctx.attach_perf(name);
    pmd.emc = Emc(emc_entries_);
    nonpmd_.megaflow->for_each_entry([&](const CachedFlow& flow, const net::FlowMask& mask) {
        pmd.megaflow->insert(flow.masked_key, mask, flow.actions);
    });
    pmds_.push_back(std::move(pmd));
    // Scale-out: one conntrack shard per PMD, rounded up to a power of
    // two. add_pmd is config-time, which is what reshard needs.
    std::uint32_t target = 1;
    while (target < pmds_.size() && target < kern::CtTable::kMaxShards) target <<= 1;
    ct_.reshard(target);
    return static_cast<int>(pmds_.size()) - 1;
}

void DpifNetdev::set_emc_entries(std::uint32_t entries)
{
    emc_entries_ = entries;
    for_each_lane([&](Pmd& lane) { lane.emc = Emc(entries); });
}

void DpifNetdev::pmd_assign(int pmd, std::uint32_t port_no, std::uint32_t queue)
{
    pmds_[static_cast<std::size_t>(pmd)].rxqs.push_back(Rxq{port_no, queue, 0});
}

std::uint32_t DpifNetdev::pmd_poll_once(int pmd_index)
{
    Pmd& pmd = pmds_[static_cast<std::size_t>(pmd_index)];
    obs::PmdPerf* perf = pmd.ctx.perf();
    // One profiler iteration per poll cycle over the PMD's rxqs; the
    // "packets" of an iteration are classifier passes (recirculation
    // classifies again), which is what keeps pmd/perf-show packet
    // totals equal to pmd-stats-show hits+misses.
    const std::uint64_t classified_before = stats_hits_ + upcall_count_;
    Pmd* const outer = std::exchange(pmd_, &pmd);
    if (perf) perf->begin_iteration();
    std::uint32_t processed = 0;
    for (Rxq& rxq : pmd.rxqs) {
        auto it = ports_.find(rxq.port_no);
        if (it == ports_.end() || !it->second.netdev) continue;
        const sim::Nanos busy_before = pmd.ctx.total_busy();
        processed += poll_rxq(*it->second.netdev, rxq.port_no, rxq.queue, pmd.ctx);
        // Everything the PMD spent on this queue's burst (poll included)
        // is the §4.2 "processing cycles" signal the auto-LB consumes.
        rxq.busy_ns += static_cast<std::uint64_t>(pmd.ctx.total_busy() - busy_before);
    }
    if (perf) perf->end_iteration(stats_hits_ + upcall_count_ - classified_before);
    pmd_ = outer;
    return processed;
}

std::uint32_t DpifNetdev::main_thread_poll_once(sim::ExecContext& ctx)
{
    obs::PmdPerf* perf = ctx.perf();
    const std::uint64_t classified_before = stats_hits_ + upcall_count_;
    Pmd* const outer = std::exchange(pmd_, &nonpmd_);
    if (perf) perf->begin_iteration();
    std::uint32_t processed = 0;
    for (auto& [port_no, port] : ports_) {
        if (!port.netdev) continue;
        for (std::uint32_t q = 0; q < port.netdev->n_rxq(); ++q) {
            processed += poll_rxq(*port.netdev, port_no, q, ctx);
        }
    }
    if (perf) perf->end_iteration(stats_hits_ + upcall_count_ - classified_before);
    pmd_ = outer;
    return processed;
}

std::uint32_t DpifNetdev::poll_rxq(Netdev& netdev, std::uint32_t port_no, std::uint32_t queue,
                                   sim::ExecContext& ctx)
{
    // The rx batch keeps its capacity across polls. It is taken for the
    // poll, so a poll re-entered from inside process_batch would start
    // from an empty vector of its own.
    std::vector<net::Packet> batch = std::move(rx_batch_);
    std::uint32_t n;
    {
        obs::PerfStageScope rx(ctx.perf(), obs::PerfStage::RxPoll);
        n = netdev.rx_burst(queue, batch, Netdev::kBatchSize, ctx);
    }
    if (n > 0) process_batch(port_no, std::move(batch), ctx);
    batch.clear();
    rx_batch_ = std::move(batch);
    return n;
}

bool DpifNetdev::try_tunnel_decap(net::Packet& pkt, sim::ExecContext& ctx)
{
    // Userspace tunnel termination: if the frame targets one of our
    // tunnel endpoints, strip the outer headers and re-badge the packet
    // as arriving on the tunnel vport.
    const auto* ip = pkt.try_header_at<net::Ipv4Header>(sizeof(net::EthernetHeader));
    if (!ip || ip->version() != 4) return false;
    for (auto& [no, port] : ports_) {
        if (!port.tunnel || port.tunnel_local_ip != ip->dst()) continue;
        auto res = net::decapsulate(pkt, *port.tunnel);
        if (!res) continue;
        ctx.charge(costs_.parse_extract); // outer header parse
        net::int_export_popped(res->key.ip_src, res->key.ip_dst, res->geneve_opts);
        pkt.meta().tunnel = res->key;
        pkt.meta().in_port = no;
        return true;
    }
    return false;
}

void DpifNetdev::process_batch(std::uint32_t in_port, std::vector<net::Packet>&& batch,
                               sim::ExecContext& ctx)
{
    // One rx burst (at most Netdev::kBatchSize packets) is one batch
    // flush. The transport counters and the INT occupancy field count
    // bursts, so recirculation through pipeline() leaves them alone.
    OVSX_COVERAGE_CTX(ctx, "batch.flush");
    OVSX_COVERAGE_CTX_N(ctx, "batch.occupancy", batch.size());
    last_batch_occupancy_ = static_cast<std::uint16_t>(batch.size());
    const bool outer = !batching_outputs_;
    if (outer) batching_outputs_ = true;
    for (auto& pkt : batch) {
        {
            // Admission and a decap's outer-header parse are charged to
            // the emc-lookup stage, like pipeline()'s miniflow extraction.
            obs::PerfStageScope admit(ctx.perf(), obs::PerfStage::EmcLookup);
            san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
            pkt.meta().in_port = in_port;
            try_tunnel_decap(pkt, ctx);
        }
        pipeline(std::move(pkt), ctx, 0);
    }
    if (outer) {
        batching_outputs_ = false;
        flush_output_batches(ctx);
    }
}

void DpifNetdev::pipeline(net::Packet&& pkt, sim::ExecContext& ctx, int depth)
{
    if (depth > 8) {
        ++dropped_;
        return;
    }
    obs::PmdPerf* perf = ctx.perf();
    Pmd& pmd = *pmd_;

    // Miniflow extraction.
    obs::PerfStageScope emc_scope(perf, obs::PerfStage::EmcLookup);
    ctx.charge(costs_.parse_extract);
    pkt.meta().latency_ns += costs_.parse_extract;
    const net::FlowKey key = net::parse_flow(pkt);
    const std::uint64_t hash = key.hash();

    // First level: this lane's EMC. Large lookup working sets spill out
    // of the CPU caches: one extra cold line per packet once the EMC
    // holds many flows (the 1-flow vs 1000-flow gap of Fig. 9).
    ctx.charge(costs_.emc_hit);
    pkt.meta().latency_ns += costs_.emc_hit;
    if (pmd.emc.occupancy() > 128 || pmd.megaflow->flow_count() > 128) {
        ctx.charge(costs_.cache_miss);
        pkt.meta().latency_ns += costs_.cache_miss;
    }
    if (const CachedFlowPtr flow = pmd.emc.lookup_ref(key, hash)) {
        OVSX_COVERAGE_CTX(ctx, "emc.hit");
        ++stats_hits_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Emc, pkt.meta().latency_ns, "hit");
        }
        ++flow->hits;
        flow->bytes += pkt.size();
        // The shared reference keeps the actions alive even if a nested
        // upcall's flow_put replaces this flow mid-execution.
        run_actions(std::move(pkt), flow->actions, ctx, depth);
        return;
    }
    OVSX_COVERAGE_CTX(ctx, "emc.miss");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Emc, pkt.meta().latency_ns, "miss");
    }

    // Second level: this lane's megaflow cache (tuple space search).
    MegaflowCache::LookupResult res;
    {
        obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
        res = pmd.megaflow->lookup(key);
        ctx.charge(static_cast<sim::Nanos>(res.probes) * costs_.megaflow_probe);
        pkt.meta().latency_ns += static_cast<sim::Nanos>(res.probes) * costs_.megaflow_probe;
    }
    if (res.flow) {
        OVSX_COVERAGE_CTX(ctx, "megaflow.hit");
        ++stats_hits_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Megaflow, pkt.meta().latency_ns,
                       "hit", res.probes);
        }
        ++res.flow->hits;
        res.flow->bytes += pkt.size();
        if (++pmd.emc_insert_counter % emc_insert_inv_prob_ == 0) {
            obs::PerfStageScope ins(perf, obs::PerfStage::MegaflowLookup);
            pmd.emc.insert(key, hash, res.flow);
            ctx.charge(costs_.emc_hit);
        }
        run_actions(std::move(pkt), res.flow->actions, ctx, depth);
        return;
    }

    // Slow path.
    OVSX_COVERAGE_CTX(ctx, "megaflow.miss");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Megaflow, pkt.meta().latency_ns, "miss",
                   res.probes);
    }
    ++upcall_count_;
    if (perf) perf->note_upcall();
    if (!upcall_) {
        ++lost_;
        ++dropped_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-upcall-handler");
        }
        return;
    }
    OVSX_COVERAGE_CTX(ctx, "dpif_netdev.upcall");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Upcall, pkt.meta().latency_ns, "");
    }
    obs::PerfStageScope up(perf, obs::PerfStage::Upcall);
    ctx.charge(costs_.upcall);
    pkt.meta().latency_ns += costs_.upcall;
    upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
}

void DpifNetdev::output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx)
{
    auto it = ports_.find(port_no);
    if (it == ports_.end()) {
        ++dropped_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-such-port", port_no);
        }
        return;
    }
    Port& port = it->second;
    if (pkt.meta().trace_id && !port.tunnel) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Tx, pkt.meta().latency_ns, "", port_no);
    }
    if (port.tunnel) {
        output_tunnel(std::move(pkt), port, ctx);
        return;
    }
    if (!port.netdev) {
        ++dropped_;
        return;
    }
    if (int_cfg_.enabled && net::int_stamp_hop(pkt, int_cfg_, last_batch_occupancy_)) {
        OVSX_COVERAGE_CTX(ctx, "int.stamped");
        const auto c = costs_.copy(static_cast<std::int64_t>(sizeof(net::IntHopRecord)));
        ctx.charge(c);
        pkt.meta().latency_ns += c;
    }
    port.out.push_back(std::move(pkt));
}

void DpifNetdev::flush_output_batches(sim::ExecContext& ctx)
{
    // One tx_burst per destination port: this is where syscall / kick
    // amortisation across a batch comes from. Every port's batch is set
    // aside before any is sent, so an output issued while a batch is on
    // its way out (a tx_burst that re-enters the dpif) goes to the next
    // flush, never into a batch being sent.
    obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
    if (flushing_) {
        flush_reentered(ctx);
        return;
    }
    flushing_ = true;
    for (auto& [port_no, port] : ports_) port.out.swap(port.sending);
    for (auto& [port_no, port] : ports_) {
        if (port.sending.empty()) continue;
        port.netdev->tx_burst(0, std::move(port.sending), ctx);
        port.sending.clear();
    }
    flushing_ = false;
}

void DpifNetdev::flush_reentered(sim::ExecContext& ctx)
{
    // The outer flush still owns the ports' send batches, so this one
    // moves what is pending into batches of its own before sending any.
    std::vector<std::pair<Netdev*, std::vector<net::Packet>>> batches;
    for (auto& [port_no, port] : ports_) {
        if (!port.out.empty()) batches.emplace_back(port.netdev.get(), std::move(port.out));
    }
    for (auto& [netdev, pkts] : batches) netdev->tx_burst(0, std::move(pkts), ctx);
}

void DpifNetdev::output_tunnel(net::Packet&& pkt, const Port& vport, sim::ExecContext& ctx)
{
    net::TunnelKey tkey = pkt.meta().tunnel;
    if (tkey.ip_src == 0) tkey.ip_src = vport.tunnel_local_ip;
    if (tkey.ip_dst == 0) {
        ++dropped_;
        return;
    }
    // Resolve the underlay next hop from the cached kernel tables — no
    // syscalls on this path (§4).
    const auto hop = netlink_.resolve(tkey.ip_dst);
    if (!hop) {
        ++dropped_;
        return;
    }
    auto out_port = ifindex_to_port_.find(hop->ifindex);
    if (out_port == ifindex_to_port_.end()) {
        ++dropped_;
        return;
    }

    net::EncapParams params;
    params.outer_src_mac = hop->src_mac;
    params.outer_dst_mac = hop->dst_mac;
    const net::FlowKey inner_key = net::parse_flow(pkt);
    params.udp_src_port =
        static_cast<std::uint16_t>(0xc000 | (net::rxhash_from_key(inner_key) & 0x3fff));
    net::encapsulate(pkt, *vport.tunnel, tkey, params);
    if (int_cfg_.enabled && int_cfg_.attach_on_encap &&
        *vport.tunnel == net::TunnelType::Geneve) {
        net::int_attach(pkt, int_cfg_.max_hops);
    }
    const auto c = costs_.copy(static_cast<std::int64_t>(net::encap_overhead(*vport.tunnel)));
    ctx.charge(c);
    pkt.meta().latency_ns += c;
    pkt.meta().tunnel = net::TunnelKey{};
    output(std::move(pkt), out_port->second, ctx);
}

void DpifNetdev::execute(net::Packet&& pkt, const kern::OdpActions& actions,
                         sim::ExecContext& ctx)
{
    const bool outer = !batching_outputs_;
    if (outer) batching_outputs_ = true;
    run_actions(std::move(pkt), actions, ctx, 0);
    if (outer) {
        batching_outputs_ = false;
        flush_output_batches(ctx);
    }
}

void DpifNetdev::run_actions(net::Packet&& pkt, const kern::OdpActions& actions,
                             sim::ExecContext& ctx, int depth)
{
    using Type = kern::OdpAction::Type;
    obs::PmdPerf* perf = ctx.perf();
    obs::PerfStageScope act_scope(perf, obs::PerfStage::Actions);
    for (kern::ActionCursor c = actions.cursor(); !c.done(); c.next()) {
        switch (c.attr()) {
        case Type::Output: {
            if (c.last()) {
                output(std::move(pkt), c.port(), ctx);
                return;
            }
            net::Packet clone = pkt;
            ctx.charge(costs_.copy(static_cast<std::int64_t>(pkt.size())));
            output(std::move(clone), c.port(), ctx);
            break;
        }
        case Type::PushVlan:
            net::push_vlan(pkt, c.vlan_tci());
            ctx.charge(costs_.copy(4));
            break;
        case Type::PopVlan:
            net::pop_vlan(pkt);
            ctx.charge(costs_.copy(4));
            break;
        case Type::SetField: {
            net::FlowKey value;
            net::FlowMask mask;
            c.set_field(&value, &mask);
            const int fields = net::apply_rewrite(pkt, value, mask);
            ctx.charge(static_cast<sim::Nanos>(fields) * 8);
            break;
        }
        case Type::SetTunnel:
            pkt.meta().tunnel = c.tunnel();
            break;
        case Type::Ct: {
            obs::PerfStageScope ct_scope(perf, obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            ct_.process(pkt, key, c.ct(), ctx, now_);
            break;
        }
        case Type::Recirc:
            pkt.meta().recirc_id = c.recirc_id();
            pipeline(std::move(pkt), ctx, depth + 1);
            return;
        case Type::Meter:
            if (!meters_.admit(c.meter_id(), pkt.size(), now_)) {
                ++dropped_;
                OVSX_COVERAGE_CTX(ctx, "meter.drop");
                if (pkt.meta().trace_id) {
                    obs::trace(pkt.meta().trace_id, obs::Hop::Meter, pkt.meta().latency_ns,
                               "drop", c.meter_id());
                }
                return;
            }
            break;
        case Type::Userspace:
            if (punted_.size() >= kern::kPuntQueueDepth) {
                ++lost_;
                ++dropped_;
                if (pkt.meta().trace_id) {
                    obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                               "punt-queue-full");
                }
                return;
            }
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Action, pkt.meta().latency_ns,
                           "userspace-punt");
            }
            punted_.push_back(std::move(pkt));
            return;
        case Type::Drop:
        // OpenFlow-only kinds, which ofproto translates away: no
        // datapath list holds one.
        case Type::GotoTable:
        case Type::CtResume:
        case Type::Controller:
            return;
        }
    }
    // Action list ended without a terminal action: implicit drop.
}

void DpifNetdev::revalidate()
{
    for_each_lane([](Pmd& lane) {
        lane.megaflow->expire_idle();
        lane.emc.sweep();
        lane.megaflow->rerank();
    });
}

} // namespace ovsx::ovs

// dpif-ebpf: the §2.2.2 alternative the paper evaluated and rejected.
//
// The datapath is an eBPF program attached at the TC hook: it parses
// the packet, builds an exact-match key on its stack, and looks it up
// in an eBPF hash map. Two properties of this design drive the paper's
// Takeaway #4, and both are structural here:
//
//  - Flows are EXACT MATCH only. The verifier's restrictions (no loops,
//    no unbounded probes) preclude tuple-space search, so there is no
//    megaflow cache: every microflow needs its own map entry, and
//    flow_put() rejects wildcard masks.
//  - Every packet pays the sandboxed-interpreter cost of parse + key
//    construction + map lookup, plus the eBPF-encoded action execution,
//    which is why Fig. 2 shows it 10-20% slower than the kernel module.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "ebpf/map.h"
#include "ebpf/vm.h"
#include "kern/device.h"
#include "ovs/dpif.h"
#include "san/lockset.h"
#include "sim/time.h"
#include "sync/mutex.h"

namespace ovsx::ovs {

class DpifEbpf : public Dpif {
public:
    explicit DpifEbpf(kern::Kernel& kernel);
    ~DpifEbpf();

    const char* type() const override { return "ebpf"; }

    // Attaches the TC-hook program to a device; returns the port number.
    std::uint32_t add_port(kern::Device& dev);

    void set_upcall_handler(UpcallHandler handler) override { upcall_ = std::move(handler); }

    // Only exact-match keys are supported: `mask` must cover in_port,
    // the full 5-tuple, the VLAN TCI and the IP ToS exactly; anything
    // wider throws (the megaflow limitation).
    void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                  kern::OdpActions actions) override OVSX_EXCLUDES(flow_mu_);
    void flow_flush() override OVSX_EXCLUDES(flow_mu_);
    std::size_t flow_count() const override OVSX_EXCLUDES(flow_mu_)
    {
        sync::LockGuard guard(flow_mu_);
        return flows_.size();
    }
    std::vector<kern::OdpFlowEntry> flow_dump() const override OVSX_EXCLUDES(flow_mu_);
    void san_check(san::Site site) const override;

    void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                 sim::ExecContext& ctx) override;

    Stats stats() const override OVSX_EXCLUDES(flow_mu_)
    {
        sync::LockGuard guard(flow_mu_);
        return {hits_, misses_, lost_};
    }
    std::vector<kern::CtSnapshotEntry> ct_snapshot() const override;
    // The TC program runs in the NIC softirq contexts of the
    // device-backed ports: one row per physical queue.
    std::vector<const obs::PmdPerf*> perfs() const override;

    // The exact-match mask this datapath requires.
    static net::FlowMask required_mask();

    std::uint64_t hits() const OVSX_EXCLUDES(flow_mu_)
    {
        sync::LockGuard guard(flow_mu_);
        return hits_;
    }
    std::uint64_t misses() const OVSX_EXCLUDES(flow_mu_)
    {
        sync::LockGuard guard(flow_mu_);
        return misses_;
    }

    // Virtual clock forwarded to conntrack (same convention as
    // DpifNetdev::set_now / OvsKernelDatapath::set_now); drives the
    // host conntrack's timer-wheel tick (dpif_ebpf.cpp).
    void set_now(sim::Nanos now);
    sim::Nanos now() const { return now_; }

    // Introspection for the differential harness: the in-map flow table
    // and its userspace action shadow must stay consistent. Quiescent
    // use only — the returned references are unsynchronized views.
    const ebpf::Map& flow_map() const { return *flow_map_; }
    const std::unordered_map<std::uint32_t, kern::OdpActions>& flows() const
        OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        return flows_;
    }

    // TC-hook entry (wired as the device rx handler).
    void receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx);

    // Test seam: resurrects PR 1's flow_put action-shadow leak (the old
    // shadow entry is not erased on a re-put), so the san audit has a
    // real bug to catch. Test-only.
    void set_test_skip_shadow_erase(bool v) { test_skip_shadow_erase_ = v; }

private:
#pragma pack(push, 1)
    struct EbpfKey {
        std::uint32_t in_port = 0;
        std::uint32_t src = 0;   // wire byte order, as the program reads them
        std::uint32_t dst = 0;
        std::uint16_t sport = 0;
        std::uint16_t dport = 0;
        std::uint8_t proto = 0;
        std::uint8_t tos = 0;
        std::uint16_t vlan_tci_be = 0; // CFI "present" bit set, wire byte order
    };
#pragma pack(pop)
    static_assert(sizeof(EbpfKey) == 20);

    void do_output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx);
    // receive() minus the profiler iteration bracket (a veth-peer
    // re-entry classifies inside the outer packet's iteration).
    void receive_one(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx);

    kern::Kernel& kernel_;
    ebpf::MapPtr flow_map_;   // EbpfKey -> flow id
    ebpf::MapPtr result_map_; // slot 0: flow id found by the program
    ebpf::Image prog_;        // the TC program, verified and loaded
    std::map<std::uint32_t, kern::Device*> ports_;
    // Guards the userspace action shadow + stats. Lock-order: acquired
    // before the flow map's own ebpf.map lock, never after it. Action
    // references handed to execute() stay valid across unlock because
    // std::unordered_map nodes are stable, also across the rehash a
    // re-entrant flow_put can trigger (a flat map would move them);
    // erasing a flow while packets for it are in flight is a
    // control-plane quiescence bug, not a datapath one (same contract as
    // the real kernel's RCU-deferred flow free).
    mutable sync::Mutex flow_mu_{"ovs.dpif_ebpf.shadow"};
    std::unordered_map<std::uint32_t, kern::OdpActions> flows_
        OVSX_GUARDED_BY(flow_mu_); // id -> actions
    std::uint32_t next_port_no_ = 1;
    std::uint32_t next_flow_id_ OVSX_GUARDED_BY(flow_mu_) = 1;
    UpcallHandler upcall_;
    std::uint64_t hits_ OVSX_GUARDED_BY(flow_mu_) = 0;
    std::uint64_t misses_ OVSX_GUARDED_BY(flow_mu_) = 0;
    std::uint64_t lost_ OVSX_GUARDED_BY(flow_mu_) = 0; // misses with no upcall handler
    sim::Nanos now_ = 0;
    std::uint64_t san_scope_;
    bool test_skip_shadow_erase_ = false;
};

} // namespace ovsx::ovs

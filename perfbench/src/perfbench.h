// Shared declarations of the wall-clock datapath benchmark.
//
// A workload is generated from the seed before anything is timed: a
// schedule of bursts, each a list of packet descriptors, plus the
// benchmark's own model of the ruleset that gives every packet's
// expected egress. A leg is one provider's topology (host, NICs,
// datapath, ports, ruleset) for one workload. The driver in main.cpp
// offers the schedule to every leg through a single-threaded closed
// loop and checks every output against the model.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dpdk/mempool.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "net/flow.h"
#include "net/packet.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_netdev.h"
#include "ovs/vswitch.h"

namespace perfbench {

using namespace ovsx;

inline std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- providers ---------------------------------------------------------

enum class Provider { Afxdp, Dpdk, Kernel, Ebpf };
inline constexpr Provider kProviders[] = {Provider::Afxdp, Provider::Dpdk, Provider::Kernel,
                                          Provider::Ebpf};
// Named as gen::to_string(gen::Datapath) names them.
const char* provider_name(Provider p);

// ---- spans -------------------------------------------------------------

// Layer boundaries the traced run records, each around one call into a
// public function of the kern/ovs/nsx modules.
enum class SpanName : std::uint16_t {
    Burst,   // offer of one burst until its last packet left or dropped
    NicRx,   // kern::PhysicalDevice::rx_from_wire, one packet
    PmdPoll, // ovs::DpifNetdev::pmd_poll_once
    Upcall,  // the benchmark's upcall handler
    Xlate,   // ovs::Ofproto::xlate (all passes the handler needs)
    FlowPut, // ovs::Dpif::flow_put
    Execute, // ovs::Dpif::execute
    Install, // ruleset install (nsx::NsxAgent::deploy on nsx-conn)
    Count,
};

struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = 0;
    std::uint32_t burst = 0;
    SpanName name = SpanName::Burst;
};

// In-memory span recorder. Off by default: open() then costs one branch.
class SpanLog {
public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    bool on = false;
    std::uint32_t burst = 0; // burst id stamped on every span opened

    std::uint32_t open(SpanName n)
    {
        if (!on) return kNone;
        const auto idx = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back({now_ns(), 0, current_, burst, n});
        current_ = idx;
        return idx;
    }
    void close(std::uint32_t idx)
    {
        if (idx == kNone) return;
        spans_[idx].end = now_ns();
        current_ = spans_[idx].parent;
    }

    const std::vector<Span>& spans() const { return spans_; }

    // Per-name totals over spans [from, end): inclusive time, self time
    // (duration minus the time its children cover) and span count.
    struct Totals {
        double incl_ns[static_cast<int>(SpanName::Count)] = {};
        double self_ns[static_cast<int>(SpanName::Count)] = {};
        std::uint64_t count[static_cast<int>(SpanName::Count)] = {};
    };
    Totals totals(std::size_t from = 0) const;

    std::size_t size() const { return spans_.size(); }

private:
    std::vector<Span> spans_;
    std::uint32_t current_ = kNone;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, SpanName n) : log_(log), idx_(log.open(n)) {}
    ~ScopedSpan() { log_.close(idx_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    std::uint32_t idx_;
};

// Writes every leg's spans to `path` (binary records, see README.md).
bool write_spans(const std::string& path,
                 const std::vector<std::pair<Provider, const SpanLog*>>& logs);

// ---- outputs -----------------------------------------------------------

// One frame that left the switch, normalized for comparison: Geneve
// frames are reduced to their outer addresses + VNI (`tunnel`) and the
// inner frame; everything else keeps its bytes and tunnel = 0.
struct Output {
    std::uint32_t port = 0; // port index in the leg's topology
    std::uint64_t tunnel = 0;
    std::vector<std::uint8_t> bytes;

    friend auto operator<=>(const Output&, const Output&) = default;
};

Output normalize(std::uint32_t port, const net::Packet& pkt);

// ---- schedules ---------------------------------------------------------

inline constexpr std::uint32_t kNoPort = ~std::uint32_t{0};

// Compact packet descriptor; its meaning belongs to the workload.
using Desc = std::uint32_t;

struct Schedule {
    std::vector<Desc> pkts;
    std::vector<std::uint32_t> ends; // exclusive end offset of each burst

    std::size_t bursts() const { return ends.size(); }
    std::uint32_t begin(std::size_t b) const { return b ? ends[b - 1] : 0; }
    void end_burst() { ends.push_back(static_cast<std::uint32_t>(pkts.size())); }
};

// ---- legs --------------------------------------------------------------

class Workload;

// One provider's host: kernel, NICs, datapath and ruleset. Members are
// declared so the kernel (which owns the devices) outlives the datapath.
class Leg {
public:
    explicit Leg(Provider p);
    ~Leg();
    Leg(const Leg&) = delete;
    Leg& operator=(const Leg&) = delete;

    Provider provider;
    SpanLog spans;
    kern::Kernel kernel;
    std::unique_ptr<dpdk::Mempool> pool;
    std::vector<kern::PhysicalDevice*> devs; // port index -> device
    std::vector<std::uint32_t> port_no;      // port index -> datapath port (0: none)
    std::uint32_t tunnel_port = 0;           // Geneve vport (0: none)
    std::unique_ptr<ovs::VSwitch> vswitch;
    ovs::DpifNetdev* netdev = nullptr;
    kern::OvsKernelDatapath* kdp = nullptr;
    ovs::DpifEbpf* ebpf = nullptr;
    int pmd = -1;

    // Frames that left any device, until the driver checks them.
    std::vector<std::pair<std::uint32_t, net::Packet>> captured;
    std::uint64_t upcalls = 0;

    // Set when the ruleset's own flows cannot run on this datapath
    // (nsx-conn on eBPF): the upcall handler then installs the flow the
    // workload flattens the ruleset into, instead of Ofproto::xlate's.
    const Workload* flattened = nullptr;

    // Creates the provider's dpif. `dp_port[i]` says whether device i
    // becomes a datapath port; `tunnel_ip` != 0 adds a Geneve vport.
    void attach_datapath(const std::vector<bool>& dp_port, std::uint32_t tunnel_ip);

    void offer(std::uint32_t idx, net::Packet&& pkt)
    {
        ScopedSpan s(spans, SpanName::NicRx);
        devs[idx]->rx_from_wire(std::move(pkt));
    }
    // Polls the PMD until it comes back empty (userspace providers; the
    // kernel and eBPF datapaths finish inside rx_from_wire).
    void drain()
    {
        if (!netdev) return;
        for (;;) {
            ScopedSpan s(spans, SpanName::PmdPoll);
            if (netdev->pmd_poll_once(pmd) == 0) break;
        }
    }
    void set_now(sim::Nanos now);

    // Profiler contexts of this leg (PMD for userspace, NIC softirq
    // queues otherwise): the rows pmd/perf-show prints.
    std::vector<const obs::PmdPerf*> perf_rows();
};

// ---- workloads ---------------------------------------------------------

class Workload {
public:
    virtual ~Workload() = default;

    virtual const char* name() const = 0;
    // Builds one provider's topology and installs the ruleset: the part
    // set-up time measures. `trace` turns the leg's span log on.
    virtual std::unique_ptr<Leg> build(Provider p, bool trace) const = 0;
    // Materializes the packet of `d` for provider `p`, with the port
    // index it enters on.
    virtual net::Packet frame(Desc d, Provider p, std::uint32_t* in_port) const = 0;
    // The model's expected result of `d` on provider `p`; port kNoPort
    // when the ruleset drops it.
    virtual Output expect(Desc d, Provider p) const = 0;
    // Conntrack spec the key-stream replay pushes `d` through.
    virtual kern::CtSpec ct_spec(Desc d) const = 0;
    // Actions and mask of the flow a Leg::flattened leg installs for
    // `key`; only workloads that set Leg::flattened override it.
    virtual std::pair<kern::OdpActions, net::FlowMask> flatten(Leg& leg,
                                                              const net::FlowKey& key) const;

    Schedule warmup;
    Schedule timed; // sized from the run length, offered whole to each provider
    sim::Nanos step_ns = 1000;        // virtual time per burst
    std::size_t chunk_bursts = 128;   // bursts per throughput chunk
    std::size_t trace_chunks = 16;    // untraced (and traced) chunks of a traced run
    std::size_t determinism_bursts = 1024;
    int setup_rounds = 5;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds);

} // namespace perfbench

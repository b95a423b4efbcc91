// Multi-host leaf–spine fabric with in-band network telemetry (INT).
//
// Composes N simulated hosts — each a full testbed: a dpif provider
// (netdev / kernel / eBPF), conntrack, and the obs surface — into a
// two-tier Clos: every host uplinks to leaf (host % leaves), every
// leaf connects to every spine. Inter-host VM traffic rides the
// existing Geneve tunnel path; transit switches route on the outer
// destination VTEP address only (macs pass through untouched).
//
// Telemetry: the source host attaches the Geneve INT option at encap
// and stamps the first hop record; every transit switch stamps one
// more (switch id, tier, batch occupancy, cumulative latency ticks);
// the destination host pops the option at decap and exports it into
// obs (int.* counters, per-path latency histograms, `int/paths`).
// The eBPF datapath cannot rewrite packets in flight, so eBPF hosts
// terminate the tunnel in a VTEP shim at the uplink edge: the shim
// attaches/stamps on egress and pops/exports on ingress, while the
// datapath itself only ever forwards inner frames (and, were an INT
// frame to transit it, would forward the option byte-intact).
//
// Links are instrumented: per-direction frame counters feed the
// `fabric/show` appctl command, and a link can be degraded by an
// extra per-traversal latency — the basis for bench_fabric_int, which
// localizes the slow link purely from exported INT data.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.h"
#include "obs/appctl.h"
#include "obs/value.h"
#include "sim/time.h"

namespace ovsx::fabric {

enum class HostProvider { Netdev = 0, Kernel = 1, Ebpf = 2 };

const char* to_string(HostProvider p);

// Extra one-way latency injected on the wire from `from` to `to`
// (switch names as rendered by fabric/show: "h0", "leaf1", "spine0").
struct DegradedLink {
    std::string from;
    std::string to;
    sim::Nanos extra_ns = 0;
};

struct FabricConfig {
    std::size_t hosts = 3;
    std::size_t leaves = 2;
    std::size_t spines = 2;
    // Per-host provider; hosts beyond the vector's size run Netdev.
    std::vector<HostProvider> providers;
    bool int_enabled = true;
    std::uint8_t int_max_hops = 8;
    // Frames enqueued before the fabric drains once (burst size seen
    // by the PMDs; 1 degenerates to per-packet forwarding).
    std::size_t batch_size = 8;
    std::optional<DegradedLink> degraded;
    // Deploy the nsx agent's production-shaped ruleset (classification
    // → demux → DFW/conntrack → egress) on netdev/kernel hosts instead
    // of the minimal hand-rolled MAC-forwarding tables. eBPF hosts
    // always run the exact-match ruleset their datapath can express.
    bool use_nsx = false;
    std::size_t nsx_target_rules = 0; // extra ACL bulk beyond the base tables
};

// A frame delivered to a destination VM device.
struct DeliveredFrame {
    std::size_t dst_host = 0;
    std::vector<std::uint8_t> bytes;
    std::uint32_t trace_id = 0;
    sim::Nanos latency_ns = 0;
};

// Per-link load snapshot (also rendered by fabric/show).
struct LinkLoad {
    std::string a;
    std::string b;
    std::uint64_t a_to_b = 0;
    std::uint64_t b_to_a = 0;
    sim::Nanos extra_ab = 0;
    sim::Nanos extra_ba = 0;
};

class Fabric {
public:
    explicit Fabric(FabricConfig cfg);
    ~Fabric();
    Fabric(const Fabric&) = delete;
    Fabric& operator=(const Fabric&) = delete;

    const FabricConfig& config() const;
    std::size_t host_count() const;
    HostProvider provider(std::size_t host) const;

    // ---- addressing plan (static, deterministic) --------------------
    static constexpr std::uint32_t kVni = 100;
    static std::uint32_t vtep_ip(std::size_t host);
    static std::uint32_t vm_ip(std::size_t host);
    static net::MacAddr vm_mac(std::size_t host);
    static net::MacAddr uplink_mac(std::size_t host);
    static std::uint32_t host_switch_id(std::size_t host) { return 1 + static_cast<std::uint32_t>(host); }
    static std::uint32_t leaf_switch_id(std::size_t leaf) { return 101 + static_cast<std::uint32_t>(leaf); }
    static std::uint32_t spine_switch_id(std::size_t spine) { return 201 + static_cast<std::uint32_t>(spine); }
    std::string switch_name(std::uint32_t switch_id) const;

    // The switch-id chain an INT option stamped on the src→dst path
    // carries when it is exported at the destination (source host hop
    // first; the destination host pops without stamping).
    std::vector<std::uint32_t> expected_chain(std::size_t src, std::size_t dst) const;

    // ---- traffic ----------------------------------------------------
    // Sends `count` UDP frames from src's VM to dst's VM, draining the
    // fabric every config().batch_size injections (and once at the
    // end). Each frame carries a fresh trace id.
    void send(std::size_t src, std::size_t dst, std::size_t count,
              std::size_t payload_len = 64);
    // Polls every PMD until a full quiet round.
    void drain();

    std::vector<DeliveredFrame>& delivered();
    void clear_delivered();

    // ---- observability ----------------------------------------------
    // The per-host appctl: identical command shapes on every provider
    // (netdev/kernel hosts answer via their vswitch; eBPF hosts own a
    // standalone appctl with the same provider commands).
    obs::Appctl& appctl(std::size_t host);

    std::vector<LinkLoad> link_loads() const;
    // Degrades (or re-degrades) the from→to direction of a link at
    // runtime; names as in fabric/show. Throws std::out_of_range for
    // an unknown link.
    void set_link_degradation(const std::string& from, const std::string& to,
                              sim::Nanos extra_ns);

    // The same object the installed fabric/show provider renders:
    // {"hosts": [...], "switches": [...], "links": [...]}.
    obs::Value fabric_show() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// Cross-provider fabric differential: one fabric per provider (all
// hosts netdev, all kernel, all eBPF), the identical traffic schedule,
// delivered inner frames compared byte for byte and trace ids checked
// for end-to-end continuity. On divergence the report lines carry the
// full cross-host journey (per-hop switch chain) of the divergent
// trace on every provider.
struct FabricDiffReport {
    std::size_t frames_sent = 0;
    std::vector<std::string> divergences;
    bool ok() const { return divergences.empty(); }
    std::string summary() const;
};

// Runs the identical all-ordered-pairs schedule on three fabrics (one
// per provider) and diffs delivery. `inject_drop_trace` is a test hook:
// when nonzero, that trace id is discarded from the netdev run's
// deliveries, simulating a lost frame so the divergence path — and the
// cross-host journey it prints — can be exercised deterministically.
FabricDiffReport run_fabric_differential(std::size_t hosts, std::size_t frames_per_pair,
                                         std::size_t batch_size,
                                         std::uint32_t inject_drop_trace = 0);

} // namespace ovsx::fabric

// Differential datapath conformance harness.
//
// The paper's core claim is that the AF_XDP userspace datapath, the
// kernel module, and the eBPF datapath are behaviorally interchangeable
// — same forwarding decisions, same flow/conntrack state — differing
// only in cost. This harness checks that: it instantiates all three
// dpifs on identical topologies, drives the same deterministic packet
// sequence through each, and diffs per-packet verdicts (output port
// set + exact frame bytes) and end-state (flow tables, conntrack,
// per-port stats). Divergences come back with a minimized reproducer.
//
// Known, structural differences (the eBPF datapath cannot express
// recirculation, tunnels, meters or wildcards) are encoded as explicit
// *explanations* — a divergence is either explained by one of those or
// reported as a conformance bug. Conntrack — including SNAT/DNAT — is
// implemented by every datapath, so ct end state (NAT tuples included)
// is always diffed, never allowlisted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kern/meter.h"
#include "kern/odp.h"
#include "net/flow.h"
#include "net/packet.h"

namespace ovsx::gen {

enum class DpKind { Netdev = 0, Kernel = 1, Ebpf = 2 };

const char* to_string(DpKind k);

// One flow rule of the logical (OpenFlow-ish) ruleset the harness
// translates into datapath flows on upcall.
struct DiffRule {
    int priority = 0;
    net::FlowKey match;   // compared under `mask`
    net::FlowMask mask;
    kern::OdpActions actions;
};

struct DiffRuleset {
    std::vector<DiffRule> rules;
    // Meter configs installed identically into every datapath.
    std::vector<std::pair<std::uint32_t, kern::MeterConfig>> meters;

    // Highest-priority rule matching `key` (first wins on ties), or
    // nullptr for a miss (drop).
    const DiffRule* evaluate(const net::FlowKey& key) const;

    // Union of every rule mask plus in_port/recirc_id: installing upcall
    // flows under this mask guarantees each datapath flow maps to exactly
    // one ruleset equivalence class.
    net::FlowMask union_mask() const;
};

// One step of the injected sequence: a frame arriving on a port index
// (0-based index into the harness's identical port lists).
struct DiffPacket {
    std::size_t port = 0;
    net::Packet pkt;
};

// What one datapath did with one injected frame: the set of (port
// index, frame bytes) it emitted, order-normalized. Empty = drop.
struct Verdict {
    std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> outputs;

    friend bool operator==(const Verdict&, const Verdict&) = default;
    std::string to_string() const;
};

struct Divergence {
    std::size_t step = 0;    // sequence index; == sequence size for end-state
    std::string detail;      // per-datapath verdicts / state difference
    std::string explanation; // empty = unexplained conformance bug
    // obs trace of the divergent packet's journey through every
    // provider (grouped by domain). The main comparison pass runs with
    // the tracer off (it dominated soak wall-clock); when an unexplained
    // divergence surfaces, the identical sequence is deterministically
    // re-run with tracing on and the trace regenerated from the replay.
    // Empty for end-state and explained divergences.
    std::string trace;
};

struct Reproducer {
    std::uint64_t seed = 0;
    std::vector<std::size_t> steps; // minimal subsequence (original indices)
};

struct DiffReport {
    std::size_t packets_run = 0;
    std::vector<Divergence> unexplained;
    std::vector<Divergence> explained;
    std::optional<Reproducer> reproducer; // for the first unexplained divergence

    bool ok() const { return unexplained.empty(); }
    std::string summary() const;
};

struct DiffOptions {
    std::size_t n_ports = 4;
    std::uint32_t num_queues = 1;  // RSS queues per NIC (PMD polls them all)
    bool compare_ebpf = true;      // include DpifEbpf in the comparison
    bool compare_end_state = true; // diff flow/ct tables + port stats at the end
    bool minimize = true;          // shrink the first unexplained divergence
    std::uint64_t seed = 0;        // recorded into reproducers
    // INT telemetry on: netdev and kernel stamp hop records into
    // INT-bearing Geneve frames, eBPF forwards them intact. Stamped
    // latency/occupancy legitimately differ across providers, so
    // captured frames are INT-stripped (net::int_strip_bytes) before
    // verdict comparison — the inner packet must still be byte-identical.
    bool enable_int = false;
    // Shard count applied to every provider's conntrack (userspace and
    // kernel). The end-state comparison is order-insensitive, so any
    // shard count must produce bit-identical verdicts and digests — the
    // soak rotates it to prove it.
    std::uint32_t ct_shards = 1;
};

// Fault injection: mutates the translated actions for one datapath
// before they are installed/executed — used to prove the harness
// catches a mis-translated action with a small reproducer. It edits
// the list decoded, and the harness encodes the result.
using ActionMutator = std::function<void(std::vector<kern::OdpAction>&)>;

class DifferentialHarness {
public:
    explicit DifferentialHarness(DiffRuleset ruleset, DiffOptions opts = {});
    ~DifferentialHarness();

    void set_fault(DpKind kind, ActionMutator mutator);

    // Drives `seq` through all datapaths and returns the diff report.
    // Each call starts from fresh datapath instances.
    DiffReport run(const std::vector<DiffPacket>& seq);

    // Burst twins: two fresh, identically configured instances of the
    // SAME datapath kind share one chunked injection schedule
    // (`batch_size` packets are enqueued before either side drains, so
    // the netdev PMD classifies multi-packet rx bursts). Per-step
    // verdicts are re-attributed by trace id, then verdict vectors, end
    // state (flow table + ct), and semantic counters (EMC/megaflow/
    // upcall/meter — not transport counters like doorbells or
    // batch.occupancy) are diffed. There is no allowlist and no
    // minimizer here: the two sides run identical rulesets on one
    // provider, so ANY divergence is an unexplained bug — state carried
    // between instances or nondeterminism in the burst path.
    DiffReport run_burst_twins(const std::vector<DiffPacket>& seq, DpKind kind,
                               std::size_t batch_size);

private:
    struct Instance;

    std::unique_ptr<Instance> make_instance(DpKind kind) const;
    std::vector<std::unique_ptr<Instance>> make_instances() const;
    DiffReport run_once(const std::vector<DiffPacket>& seq, bool allow_minimize);
    // Diffs two instances' end state: flow tables when `flows` is set
    // (digest first where both sides have one), then conntrack. Each
    // mismatch is one divergence naming every entry only one side holds
    // (`only-<name>:` lines).
    static void diff_end_state(const Instance& a, const char* a_name, const Instance& b,
                               const char* b_name, bool flows, DiffReport& report);
    void attach_traces(const std::vector<DiffPacket>& seq, DiffReport& report);
    bool subsequence_diverges(const std::vector<DiffPacket>& seq,
                              const std::vector<std::size_t>& steps);
    Reproducer minimize(const std::vector<DiffPacket>& seq, std::size_t fail_step);

    DiffRuleset ruleset_;
    DiffOptions opts_;
    ActionMutator faults_[3];
};

// Classifies a (packet key, ruleset) pair against the structural
// feature allowlist. Returns an empty string when every datapath should
// agree, else the explanation tag (e.g. "ebpf-unsupported-action").
// Every tag is a limit of the eBPF datapath, so a comparison without it
// (`ebpf_involved` false) is never explained.
std::string explain_expected_divergence(const DiffRuleset& ruleset, const net::FlowKey& key,
                                        bool ebpf_involved);

// The complete allowlist: every tag explain_expected_divergence can
// return, sorted. Tests and the CI allowlist-budget check compare
// against this set — it must only ever shrink (a removed tag, e.g. the
// retired "ct-nat", must never reappear).
const std::vector<std::string>& known_divergence_tags();

} // namespace ovsx::gen

#include "gen/differential.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>
#include <iomanip>
#include <cstdlib>
#include <stdexcept>
#include <unordered_set>

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "net/int_hdr.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"

namespace ovsx::gen {

namespace {

// Virtual time advances 1ms per injected packet so meter refill and
// conntrack timestamps are identical across datapaths and runs.
constexpr sim::Nanos kStepNanos = 1'000'000;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (auto b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

// OR of two masks, byte-wise over the FlowKey layout.
net::FlowMask mask_union(const net::FlowMask& a, const net::FlowMask& b)
{
    net::FlowMask out;
    const auto* pa = reinterpret_cast<const std::uint8_t*>(&a.bits);
    const auto* pb = reinterpret_cast<const std::uint8_t*>(&b.bits);
    auto* po = reinterpret_cast<std::uint8_t*>(&out.bits);
    for (std::size_t i = 0; i < sizeof(net::FlowKey); ++i) {
        po[i] = static_cast<std::uint8_t>(pa[i] | pb[i]);
    }
    return out;
}

// True when every significant bit of `m` is also significant in `allowed`.
bool mask_within(const net::FlowMask& m, const net::FlowMask& allowed)
{
    const auto* pm = reinterpret_cast<const std::uint8_t*>(&m.bits);
    const auto* pa = reinterpret_cast<const std::uint8_t*>(&allowed.bits);
    for (std::size_t i = 0; i < sizeof(net::FlowKey); ++i) {
        if (pm[i] & ~pa[i]) return false;
    }
    return true;
}

// Order-independent digest of one flow-table entry. Flow tables are
// compared digest-first: XOR of entry digests (plus a count) decides
// equality, and the expensive per-entry string dump is built only when
// digests disagree and a divergence must be named.
std::uint64_t flow_entry_digest(const net::FlowKey& masked, const net::FlowMask& mask,
                                const kern::OdpActions& actions)
{
    std::uint64_t h = masked.hash(mask.bits.hash(0x6d61736bULL));
    for (const auto& a : actions) {
        std::uint64_t ah = 1469598103934665603ULL;
        for (const char c : a.to_string()) {
            ah ^= static_cast<unsigned char>(c);
            ah *= 1099511628211ULL;
        }
        h = (h ^ ah) * 0x9e3779b97f4a7c15ULL;
    }
    h ^= h >> 32;
    return h;
}

// A table's entries rendered and sorted, for naming divergences.
template <typename Entries>
std::vector<std::string> sorted_strings(const Entries& entries)
{
    std::vector<std::string> out;
    for (const auto& e : entries) out.push_back(e.to_string());
    std::sort(out.begin(), out.end());
    return out;
}

// Reports an end-state divergence naming every entry that only one side
// holds; nothing when the two sorted dumps agree.
void report_table_difference(const char* table, const char* unit, const char* a_name,
                             const std::vector<std::string>& a, const char* b_name,
                             const std::vector<std::string>& b, DiffReport& report)
{
    if (a == b) return;
    std::vector<std::string> only_a, only_b;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(only_a));
    std::set_difference(b.begin(), b.end(), a.begin(), a.end(), std::back_inserter(only_b));
    std::ostringstream os;
    os << table << " tables differ: " << a_name << "=" << a.size() << " " << unit << ", "
       << b_name << "=" << b.size();
    for (const auto& e : only_a) os << "\n    only-" << a_name << ": " << e;
    for (const auto& e : only_b) os << "\n    only-" << b_name << ": " << e;
    report.unexplained.push_back({report.packets_run, os.str(), "", ""});
}

net::FlowMask ebpf_expressible_mask()
{
    net::FlowMask m = ovs::DpifEbpf::required_mask();
    // recirc/ct dimensions only become relevant through a Recirc action,
    // which is itself flagged as unsupported on the eBPF path.
    m.bits.recirc_id = 0xffffffff;
    m.bits.ct_state = 0xff;
    m.bits.ct_zone = 0xffff;
    m.bits.ct_mark = 0xffffffff;
    return m;
}

} // namespace

const char* to_string(DpKind k)
{
    switch (k) {
    case DpKind::Netdev: return "netdev";
    case DpKind::Kernel: return "kernel";
    case DpKind::Ebpf: return "ebpf";
    }
    return "?";
}

const DiffRule* DiffRuleset::evaluate(const net::FlowKey& key) const
{
    const DiffRule* best = nullptr;
    for (const auto& r : rules) {
        if (!r.mask.same_masked(key, r.match)) continue;
        if (!best || r.priority > best->priority) best = &r;
    }
    return best;
}

net::FlowMask DiffRuleset::union_mask() const
{
    net::FlowMask m;
    m.bits.in_port = 0xffffffff;
    m.bits.recirc_id = 0xffffffff;
    for (const auto& r : rules) m = mask_union(m, r.mask);
    return m;
}

std::string Verdict::to_string() const
{
    std::ostringstream os;
    if (outputs.empty()) return "drop";
    os << "[";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (i) os << " ";
        os << "p" << outputs[i].first << ":" << outputs[i].second.size() << "B#" << std::hex
           << (fnv1a(outputs[i].second) & 0xffff) << std::dec;
        if (std::getenv("OVSX_DIFF_DUMP")) {
            os << " ";
            for (auto b : outputs[i].second)
                os << std::hex << std::setw(2) << std::setfill('0') << int(b);
            os << std::dec;
        }
    }
    os << "]";
    return os.str();
}

std::string DiffReport::summary() const
{
    std::ostringstream os;
    os << packets_run << " packets, " << unexplained.size() << " unexplained / "
       << explained.size() << " explained divergences";
    if (reproducer) {
        os << "; reproducer: seed=" << reproducer->seed << " steps={";
        for (std::size_t i = 0; i < reproducer->steps.size(); ++i) {
            if (i) os << ",";
            os << reproducer->steps[i];
        }
        os << "}";
    }
    for (const auto& d : unexplained) {
        os << "\n  UNEXPLAINED step " << d.step << ": " << d.detail;
        if (!d.trace.empty()) os << "\n  " << d.trace;
    }
    for (const auto& d : explained) {
        os << "\n  explained(" << d.explanation << ") step " << d.step << ": " << d.detail;
    }
    return os.str();
}

std::string explain_expected_divergence(const DiffRuleset& ruleset, const net::FlowKey& key,
                                        bool ebpf_involved)
{
    // Conservative reachability walk: the rule the packet hits plus, for
    // every reachable Recirc id, every rule that can match that id.
    std::vector<const DiffRule*> reachable;
    std::unordered_set<std::uint32_t> seen_recirc;
    std::vector<std::uint32_t> pending;

    const DiffRule* first = ruleset.evaluate(key);
    if (first) reachable.push_back(first);

    auto enqueue_recircs = [&](const DiffRule* r) {
        for (const auto& a : r->actions) {
            if (a.type == kern::OdpAction::Type::Recirc && seen_recirc.insert(a.recirc_id).second) {
                pending.push_back(a.recirc_id);
            }
        }
    };
    if (first) enqueue_recircs(first);
    while (!pending.empty()) {
        const std::uint32_t id = pending.back();
        pending.pop_back();
        for (const auto& r : ruleset.rules) {
            const std::uint32_t m = r.mask.bits.recirc_id;
            if ((id & m) != (r.match.recirc_id & m)) continue;
            reachable.push_back(&r);
            enqueue_recircs(&r);
        }
        if (reachable.size() > 256) break; // defensive bound
    }

    for (const auto* r : reachable) {
        for (const auto& a : r->actions) {
            using Type = kern::OdpAction::Type;
            if (a.type == Type::Userspace) {
                // netdev punts to a local queue; the kernel module
                // re-invokes the upcall handler, which re-executes.
                return "userspace-action";
            }
        }
    }

    // eBPF checks scan the WHOLE ruleset, not just reachable rules: the
    // exact-match map collapses every dimension outside its key, so a
    // rule matching e.g. vlan_tci installs entries that frames hitting
    // *other* rules can alias into. Any such rule poisons the keyspace.
    if (ebpf_involved) {
        const net::FlowMask ebpf_ok = ebpf_expressible_mask();
        for (const auto& r : ruleset.rules) {
            for (const auto& a : r.actions) {
                using Type = kern::OdpAction::Type;
                if (a.type == Type::Recirc || a.type == Type::SetTunnel ||
                    a.type == Type::Meter) {
                    return "ebpf-unsupported-action";
                }
            }
            if (!mask_within(r.mask, ebpf_ok)) {
                // The eBPF map key covers in_port/IPs/ports/proto plus
                // VLAN TCI and IP ToS, but not MACs or dl_type: two
                // microflows distinguished only by a missing dimension
                // share one map entry.
                return "ebpf-key-dimensions";
            }
        }
    }
    return "";
}

const std::vector<std::string>& known_divergence_tags()
{
    static const std::vector<std::string> tags = {
        "ebpf-key-dimensions",
        "ebpf-unsupported-action",
        "userspace-action",
    };
    return tags;
}

// ---- datapath instances ------------------------------------------------

struct DifferentialHarness::Instance {
    // One frame that left the switch: which port emitted it, the exact
    // bytes, and the trace id of the injected packet it descends from
    // (rides PacketMeta end to end, XskDesc::options across the umem) —
    // the id is what lets burst-mode verdicts be split back per step.
    struct CapturedFrame {
        std::size_t port;
        std::vector<std::uint8_t> bytes;
        std::uint32_t trace_id;
    };

    DpKind kind;
    std::unique_ptr<kern::Kernel> kernel;
    std::vector<kern::PhysicalDevice*> nics;
    std::vector<std::uint32_t> port_nos;
    std::vector<CapturedFrame> captured;

    std::unique_ptr<ovs::DpifNetdev> netdev;
    std::unique_ptr<kern::OvsKernelDatapath> kdp;
    std::unique_ptr<ovs::DpifKernel> kdpif;
    std::unique_ptr<ovs::DpifEbpf> ebpf;
    ovs::Dpif* dpif = nullptr;
    int pmd = -1;

    void set_now(sim::Nanos now)
    {
        switch (kind) {
        case DpKind::Netdev: netdev->set_now(now); break;
        case DpKind::Kernel: kdp->set_now(now); break;
        case DpKind::Ebpf: ebpf->set_now(now); break;
        }
    }

    // Enqueues one packet into the NIC without draining: the kernel and
    // eBPF datapaths process synchronously inside rx_from_wire; the
    // netdev datapath leaves it on the rxq until drain().
    void enqueue(const DiffPacket& step, sim::Nanos now, std::uint32_t trace_id)
    {
        set_now(now);
        // All instrumentation this instance records while processing the
        // packet lands under this provider's domain tag, so a divergent
        // packet's journeys can be dumped side by side.
        obs::tracer().set_domain(to_string(kind));
        net::Packet copy = step.pkt;
        copy.meta().trace_id = trace_id;
        nics[step.port]->rx_from_wire(std::move(copy));
    }

    void drain()
    {
        if (kind == DpKind::Netdev) {
            while (netdev->pmd_poll_once(pmd) > 0) {
            }
        }
    }

    void inject(const DiffPacket& step, sim::Nanos now, std::uint32_t trace_id = 0)
    {
        enqueue(step, now, trace_id);
        drain();
    }

    Verdict take_verdict()
    {
        Verdict v;
        for (auto& f : captured) v.outputs.emplace_back(f.port, std::move(f.bytes));
        captured.clear();
        std::sort(v.outputs.begin(), v.outputs.end());
        return v;
    }

    // Order-independent flow-table digest: the XOR of every entry's
    // digest plus the entry count, walked copy-free. eBPF has none; its
    // flows compare by dump.
    std::optional<std::pair<std::uint64_t, std::size_t>> flow_digest() const
    {
        std::uint64_t d = 0;
        std::size_t n = 0;
        auto acc = [&](const net::FlowKey& k, const net::FlowMask& m,
                       const kern::OdpActions& acts) {
            d ^= flow_entry_digest(k, m, acts);
            ++n;
        };
        if (netdev) {
            netdev->megaflow().for_each_entry(
                [&](const ovs::CachedFlow& f, const net::FlowMask& m) {
                    acc(f.masked_key, m, f.actions);
                });
        } else if (kdp) {
            kdp->for_each_entry(acc);
        } else {
            return std::nullopt;
        }
        return std::pair{d, n};
    }

    // san cross-checks: the instance's table audits must agree with the
    // structures themselves (no-ops unless hardened mode is on;
    // violations route to the active ScopedCollect / abort).
    void san_check() const
    {
        dpif->san_check(OVSX_SITE);
        kernel->conntrack().san_check(OVSX_SITE);
        if (netdev) netdev->ct().san_check(OVSX_SITE);
    }

    // Splits everything captured since the last take into per-step
    // verdicts for the `count` steps with trace ids [base_id, base_id +
    // count), attributing each frame to the injected packet it descends
    // from. Steps that emitted nothing read as drops.
    std::vector<Verdict> split_verdicts(std::uint32_t base_id, std::size_t count)
    {
        std::vector<Verdict> out(count);
        for (auto& f : captured) {
            const std::size_t idx =
                (f.trace_id >= base_id && f.trace_id < base_id + count) ? f.trace_id - base_id
                                                                        : 0;
            out[idx].outputs.emplace_back(f.port, std::move(f.bytes));
        }
        captured.clear();
        for (auto& v : out) std::sort(v.outputs.begin(), v.outputs.end());
        return out;
    }
};

DifferentialHarness::DifferentialHarness(DiffRuleset ruleset, DiffOptions opts)
    : ruleset_(std::move(ruleset)), opts_(opts)
{
    if (opts_.n_ports == 0) throw std::invalid_argument("differential: need at least one port");
}

DifferentialHarness::~DifferentialHarness() = default;

void DifferentialHarness::set_fault(DpKind kind, ActionMutator mutator)
{
    faults_[static_cast<int>(kind)] = std::move(mutator);
}

std::unique_ptr<DifferentialHarness::Instance>
DifferentialHarness::make_instance(DpKind kind) const
{
    const net::FlowMask wide_mask = ruleset_.union_mask();
    auto inst = std::make_unique<Instance>();
    inst->kind = kind;
    inst->kernel = std::make_unique<kern::Kernel>();
    kern::NicConfig ncfg;
    ncfg.num_queues = opts_.num_queues ? opts_.num_queues : 1;
    for (std::size_t i = 0; i < opts_.n_ports; ++i) {
        auto& nic = inst->kernel->add_device<kern::PhysicalDevice>(
            "eth" + std::to_string(i), net::MacAddr::from_id(static_cast<std::uint64_t>(i + 1)),
            ncfg);
        inst->nics.push_back(&nic);
    }

    switch (kind) {
    case DpKind::Netdev: {
        inst->netdev = std::make_unique<ovs::DpifNetdev>(*inst->kernel);
        inst->netdev->set_emc_insert_inv_prob(1);
        // A fraction of the per-PMD default: the fuzz corpus cycles over
        // a few dozen microflows, and EMC table construction/teardown is
        // O(entries) per instance.
        inst->netdev->set_emc_entries(1024);
        // Windowed telemetry over the 1ms-per-step virtual clock, so
        // run artifacts carry a non-empty "windows" section.
        inst->netdev->set_window_interval(10 * kStepNanos);
        inst->pmd = inst->netdev->add_pmd("diff-pmd");
        // Far fewer umem frames than the bench default: the harness
        // never holds more than one burst in flight per port, and frame
        // registration/quiesce scans are O(frames) per instance — at
        // thousands of instances per soak they dominated setup cost.
        ovs::AfxdpOptions aopts;
        aopts.umem_frames = 256;
        for (auto* nic : inst->nics) {
            const auto p =
                inst->netdev->add_port(std::make_unique<ovs::NetdevAfxdp>(*nic, aopts));
            inst->port_nos.push_back(p);
            for (std::uint32_t q = 0; q < ncfg.num_queues; ++q) {
                inst->netdev->pmd_assign(inst->pmd, p, q);
            }
        }
        inst->dpif = inst->netdev.get();
        for (const auto& [id, cfg] : ruleset_.meters) inst->netdev->meters().set(id, cfg);
        if (opts_.enable_int) {
            // Identical switch id on every provider: the stamped VALUES
            // (latency ticks, occupancy) still differ per provider, which
            // is exactly why verdicts strip the option before comparing.
            inst->netdev->set_int({true, 1, net::kIntTierHost, 8, true});
        }
        break;
    }
    case DpKind::Kernel: {
        inst->kdp = std::make_unique<kern::OvsKernelDatapath>(*inst->kernel);
        for (auto* nic : inst->nics) inst->port_nos.push_back(inst->kdp->add_port(*nic));
        inst->kdpif = std::make_unique<ovs::DpifKernel>(*inst->kdp);
        inst->dpif = inst->kdpif.get();
        for (const auto& [id, cfg] : ruleset_.meters) inst->kdp->meters().set(id, cfg);
        if (opts_.enable_int) inst->kdp->set_int({true, 1, net::kIntTierHost, 8, true});
        break;
    }
    case DpKind::Ebpf: {
        inst->ebpf = std::make_unique<ovs::DpifEbpf>(*inst->kernel);
        for (auto* nic : inst->nics) inst->port_nos.push_back(inst->ebpf->add_port(*nic));
        inst->dpif = inst->ebpf.get();
        break;
    }
    }

    // Sharding is a cache-layout choice, never a semantic one: any
    // shard count must yield the same verdicts and end-state digests.
    // reshard() is a no-op at the default of 1. The netdev instance has
    // exactly one PMD, so add_pmd's auto-reshard has already settled at
    // 1 and won't fight the explicit count below.
    if (inst->netdev) {
        inst->netdev->ct().reshard(opts_.ct_shards);
    } else {
        inst->kernel->conntrack().reshard(opts_.ct_shards);
    }

    // Wire output capture: frames leaving port i land in captured. With
    // INT on, the option is stripped from the captured bytes first —
    // stamped telemetry values differ per provider by design, while the
    // rest of the frame (outer headers, inner packet) must stay
    // byte-identical across providers.
    for (std::size_t i = 0; i < opts_.n_ports; ++i) {
        Instance* raw = inst.get();
        const bool strip_int = opts_.enable_int;
        inst->nics[i]->connect_wire([raw, i, strip_int](net::Packet&& p) {
            std::vector<std::uint8_t> bytes(p.data(), p.data() + p.size());
            if (strip_int) bytes = net::int_strip_bytes(bytes);
            raw->captured.push_back({i, std::move(bytes), p.meta().trace_id});
        });
    }

    // The uniform slow path: evaluate the logical ruleset, install
    // the datapath flow, execute. Identical for every dpif modulo
    // the per-datapath mask language (and any injected fault).
    Instance* raw = inst.get();
    const ActionMutator& fault = faults_[static_cast<int>(kind)];
    inst->dpif->set_upcall_handler([this, raw, wide_mask, fault](
                                       std::uint32_t, net::Packet&& pkt,
                                       const net::FlowKey& key, sim::ExecContext& ctx) {
        const DiffRule* rule = ruleset_.evaluate(key);
        kern::OdpActions actions =
            rule ? rule->actions : kern::OdpActions{kern::OdpAction::drop()};
        if (fault) fault(actions);
        if (raw->kind == DpKind::Ebpf) {
            try {
                raw->dpif->flow_put(key, ovs::DpifEbpf::required_mask(), actions);
            } catch (const std::invalid_argument&) {
                // wildcard-only rulesets can still run via per-packet upcalls
            }
        } else {
            raw->dpif->flow_put(key, wide_mask, actions);
        }
        raw->dpif->execute(std::move(pkt), actions, ctx);
    });

    return inst;
}

std::vector<std::unique_ptr<DifferentialHarness::Instance>>
DifferentialHarness::make_instances() const
{
    std::vector<DpKind> kinds = {DpKind::Netdev, DpKind::Kernel};
    if (opts_.compare_ebpf) kinds.push_back(DpKind::Ebpf);

    std::vector<std::unique_ptr<Instance>> out;
    for (DpKind kind : kinds) out.push_back(make_instance(kind));
    return out;
}

void DifferentialHarness::diff_end_state(const Instance& a, const char* a_name,
                                         const Instance& b, const char* b_name, bool flows,
                                         DiffReport& report)
{
    if (flows) {
        // Digest-first: the per-entry dump only runs on a mismatch.
        const auto digest = a.flow_digest();
        if (!digest || digest != b.flow_digest()) {
            report_table_difference("flow", "entries", a_name, sorted_strings(a.dpif->flow_dump()),
                                    b_name, sorted_strings(b.dpif->flow_dump()), report);
        }
    }
    // Entries sort and compare as values; the strings are rendered only
    // to name a divergence.
    auto ct_a = a.dpif->ct_snapshot();
    auto ct_b = b.dpif->ct_snapshot();
    std::sort(ct_a.begin(), ct_a.end());
    std::sort(ct_b.begin(), ct_b.end());
    if (ct_a != ct_b) {
        report_table_difference("conntrack", "conns", a_name, sorted_strings(ct_a), b_name,
                                sorted_strings(ct_b), report);
    }
}

DiffReport DifferentialHarness::run_once(const std::vector<DiffPacket>& seq, bool)
{
    auto instances = make_instances();
    DiffReport report;
    report.packets_run = seq.size();
    bool kernel_tainted = false;
    bool ebpf_tainted = false;

    // The comparison pass runs with the tracer as-is (off, normally:
    // recording every packet's journey dominated soak wall-clock).
    // Every packet still carries trace id = step + 1, and when an
    // unexplained divergence surfaces, attach_traces() replays the
    // sequence deterministically with the tracer on to recover the
    // divergent packet's per-provider journey.
    for (std::size_t step = 0; step < seq.size(); ++step) {
        const sim::Nanos now = static_cast<sim::Nanos>(step + 1) * kStepNanos;
        const auto trace_id = static_cast<std::uint32_t>(step + 1);
        std::vector<Verdict> verdicts;
        for (auto& inst : instances) {
            inst->inject(seq[step], now, trace_id);
            verdicts.push_back(inst->take_verdict());
        }
        for (std::size_t i = 1; i < instances.size(); ++i) {
            if (verdicts[i] == verdicts[0]) continue;
            net::Packet probe = seq[step].pkt;
            probe.meta().in_port = static_cast<std::uint32_t>(seq[step].port + 1);
            const net::FlowKey key = net::parse_flow(probe);
            const bool vs_ebpf = instances[i]->kind == DpKind::Ebpf;
            Divergence d;
            d.step = step;
            d.detail = std::string("netdev=") + verdicts[0].to_string() + " " +
                       to_string(instances[i]->kind) + "=" + verdicts[i].to_string();
            d.explanation = explain_expected_divergence(ruleset_, key, vs_ebpf);
            if (d.explanation.empty()) {
                report.unexplained.push_back(std::move(d));
            } else {
                report.explained.push_back(std::move(d));
                (vs_ebpf ? ebpf_tainted : kernel_tainted) = true;
            }
        }
    }

    if (opts_.compare_end_state) {
        const std::size_t end_step = seq.size();

        // Flow tables: identical upcall translation must yield the same
        // (key, mask, actions) entries (eBPF is exact-match only,
        // structurally different — its flows are skipped). Conntrack:
        // userspace CT against the kernel CT the other two datapaths
        // share, NAT reply tuples and marks included.
        for (std::size_t i = 1; i < instances.size(); ++i) {
            Instance& other = *instances[i];
            const bool vs_ebpf = other.kind == DpKind::Ebpf;
            if (vs_ebpf ? ebpf_tainted : kernel_tainted) continue;
            diff_end_state(*instances[0], "netdev", other, to_string(other.kind), !vs_ebpf,
                           report);
        }

        // eBPF-internal invariant: the flow map and its userspace action
        // shadow must stay 1:1 (a leak here means stale actions linger).
        for (auto& inst : instances) {
            if (inst->kind != DpKind::Ebpf) continue;
            const auto dump = inst->ebpf->flow_map().snapshot();
            bool consistent = dump.size() == inst->ebpf->flows().size();
            for (const auto& [k, v] : dump) {
                std::uint32_t id = 0;
                std::memcpy(&id, v.data(), sizeof id);
                if (!inst->ebpf->flows().contains(id)) consistent = false;
            }
            if (!consistent) {
                report.unexplained.push_back(
                    {end_step,
                     "ebpf flow map (" + std::to_string(dump.size()) +
                         " entries) inconsistent with action shadow (" +
                         std::to_string(inst->ebpf->flows().size()) + ")",
                     ""});
            }
        }

        for (auto& inst : instances) inst->san_check();
    }

    // pmd/perf-show and pmd-stats-show must agree on packet totals: the
    // profiler counts an iteration's packets as classifier passes, so
    // its per-provider sum equals hits + misses exactly (recirculation
    // counts an extra pass on both sides). Checked on every harness run
    // for all three providers; skipped when the profiler is globally
    // disabled (the soak's overhead-off leg leaves contexts bare).
    for (auto& inst : instances) {
        const std::vector<const obs::PmdPerf*> perfs = inst->dpif->perfs();
        std::uint64_t perf_packets = 0;
        for (const obs::PmdPerf* perf : perfs) perf_packets += perf->packets();
        const ovs::Dpif::Stats stats = inst->dpif->stats();
        const std::uint64_t stats_packets = stats.hits + stats.misses;
        if (!perfs.empty() && perf_packets != stats_packets) {
            report.unexplained.push_back(
                {seq.size(),
                 std::string(to_string(inst->kind)) + ": pmd/perf-show packets (" +
                     std::to_string(perf_packets) + ") != pmd-stats-show hits+misses (" +
                     std::to_string(stats_packets) + ")",
                 ""});
        }
    }

    attach_traces(seq, report);
    return report;
}

void DifferentialHarness::attach_traces(const std::vector<DiffPacket>& seq, DiffReport& report)
{
    bool need = false;
    for (const auto& d : report.unexplained) need = need || d.step < seq.size();
    if (!need) return;

    // Deterministic replay with the tracer on: instances are rebuilt
    // from scratch and driven by the identical schedule, so the ring
    // ends up holding exactly the journeys the comparison pass saw. The
    // ring is sized so the full run fits; the tracer's prior state is
    // restored afterwards.
    const bool tracing_was_enabled = obs::tracer().enabled();
    obs::tracer().enable(std::max<std::size_t>(4096, seq.size() * 64));
    auto instances = make_instances();
    for (std::size_t step = 0; step < seq.size(); ++step) {
        const sim::Nanos now = static_cast<sim::Nanos>(step + 1) * kStepNanos;
        for (auto& inst : instances) {
            inst->inject(seq[step], now, static_cast<std::uint32_t>(step + 1));
            inst->take_verdict();
        }
    }
    for (auto& d : report.unexplained) {
        if (d.step < seq.size()) {
            d.trace = obs::tracer().dump(static_cast<std::uint32_t>(d.step + 1));
        }
    }
    if (!tracing_was_enabled) obs::tracer().disable();
}

bool DifferentialHarness::subsequence_diverges(const std::vector<DiffPacket>& seq,
                                               const std::vector<std::size_t>& steps)
{
    auto instances = make_instances();
    for (std::size_t step : steps) {
        const sim::Nanos now = static_cast<sim::Nanos>(step + 1) * kStepNanos;
        std::vector<Verdict> verdicts;
        for (auto& inst : instances) {
            inst->inject(seq[step], now);
            verdicts.push_back(inst->take_verdict());
        }
        for (std::size_t i = 1; i < instances.size(); ++i) {
            if (verdicts[i] == verdicts[0]) continue;
            net::Packet probe = seq[step].pkt;
            probe.meta().in_port = static_cast<std::uint32_t>(seq[step].port + 1);
            const bool vs_ebpf = instances[i]->kind == DpKind::Ebpf;
            if (explain_expected_divergence(ruleset_, net::parse_flow(probe), vs_ebpf).empty()) {
                return true;
            }
        }
    }
    return false;
}

Reproducer DifferentialHarness::minimize(const std::vector<DiffPacket>& seq,
                                         std::size_t fail_step)
{
    // ddmin-style greedy shrink of the prefix ending at the first
    // diverging packet; that packet is always kept.
    std::vector<std::size_t> cur(fail_step + 1);
    for (std::size_t i = 0; i <= fail_step; ++i) cur[i] = i;

    int trials = 0;
    constexpr int kMaxTrials = 200;
    for (std::size_t chunk = std::max<std::size_t>(cur.size() / 2, 1); chunk >= 1; chunk /= 2) {
        std::size_t i = 0;
        while (i + 1 < cur.size() && trials < kMaxTrials) {
            std::vector<std::size_t> trial;
            const std::size_t cut_end = std::min(i + chunk, cur.size() - 1);
            trial.reserve(cur.size());
            trial.insert(trial.end(), cur.begin(), cur.begin() + static_cast<long>(i));
            trial.insert(trial.end(), cur.begin() + static_cast<long>(cut_end), cur.end());
            ++trials;
            if (subsequence_diverges(seq, trial)) {
                cur = std::move(trial);
            } else {
                i = cut_end;
            }
        }
        if (chunk == 1) break;
    }
    return Reproducer{opts_.seed, std::move(cur)};
}

DiffReport DifferentialHarness::run(const std::vector<DiffPacket>& seq)
{
    DiffReport report = run_once(seq, true);
    if (!report.ok() && opts_.minimize) {
        const auto it =
            std::find_if(report.unexplained.begin(), report.unexplained.end(),
                         [&](const Divergence& d) { return d.step < seq.size(); });
        if (it != report.unexplained.end()) {
            report.reproducer = minimize(seq, it->step);
        }
    }
    return report;
}

DiffReport DifferentialHarness::run_burst_twins(const std::vector<DiffPacket>& seq,
                                                DpKind kind, std::size_t batch_size)
{
    if (batch_size == 0) batch_size = 1;
    DiffReport report;
    report.packets_run = seq.size();

    // Two fresh, identically configured instances of one provider: any
    // state that leaks between instances, or depends on anything but
    // the packets and the schedule, shows up as a divergence.
    std::unique_ptr<Instance> a = make_instance(kind);
    std::unique_ptr<Instance> b = make_instance(kind);
    if (kind == DpKind::Netdev) {
        // Windowed telemetry stays with the cross-provider instances
        // (whose windows feed the run artifacts); publishing a snapshot
        // per window close on this pair would only burn time.
        a->netdev->set_window_interval(0);
        b->netdev->set_window_interval(0);
    }
    Instance* sides[2] = {a.get(), b.get()};

    for (std::size_t base = 0; base < seq.size(); base += batch_size) {
        const std::size_t n = std::min(batch_size, seq.size() - base);
        // Enqueue the whole chunk before either side drains, so the
        // netdev PMD sees multi-packet rx bursts. Both sides share the
        // identical schedule (and the netdev PMD drains its rxqs in the
        // same port-major order on both), so processing order is equal
        // even when it differs from injection order — which is exactly
        // why the cross-provider mode above must stay per-step while
        // this same-provider mode may burst.
        for (Instance* inst : sides) {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t step = base + k;
                inst->enqueue(seq[step], static_cast<sim::Nanos>(step + 1) * kStepNanos,
                              static_cast<std::uint32_t>(step + 1));
            }
            inst->drain();
        }
        auto av = a->split_verdicts(static_cast<std::uint32_t>(base + 1), n);
        auto bv = b->split_verdicts(static_cast<std::uint32_t>(base + 1), n);
        for (std::size_t k = 0; k < n; ++k) {
            if (av[k] == bv[k]) continue;
            report.unexplained.push_back(
                {base + k, "a=" + av[k].to_string() + " b=" + bv[k].to_string(), ""});
        }
    }

    // End state: same provider on both sides, so flow tables (eBPF
    // included), conntrack, and the semantic pipeline counters must all
    // match exactly. Transport telemetry (batch.occupancy/flush,
    // doorbells, lock counts) is deliberately excluded: it records how
    // packets were moved, not what they did.
    const std::size_t end_step = seq.size();
    auto diff_count = [&](const char* what, std::uint64_t x, std::uint64_t y) {
        if (x == y) return;
        report.unexplained.push_back({end_step,
                                      std::string(what) + " differs: a=" + std::to_string(x) +
                                          " b=" + std::to_string(y),
                                      ""});
    };
    diff_end_state(*a, "a", *b, "b", true, report);
    const ovs::Dpif::Stats as = a->dpif->stats(), bs = b->dpif->stats();
    diff_count("hits", as.hits, bs.hits);
    diff_count("misses", as.misses, bs.misses);
    diff_count("lost", as.lost, bs.lost);
    if (kind == DpKind::Netdev) {
        static const char* const kSemantic[] = {"emc.hit",       "emc.miss",
                                                "megaflow.hit",  "megaflow.miss",
                                                "dpif_netdev.upcall", "meter.drop"};
        sim::ExecContext& ac = a->netdev->pmd_ctx(a->pmd);
        sim::ExecContext& bc = b->netdev->pmd_ctx(b->pmd);
        for (const char* name : kSemantic) diff_count(name, ac.counter(name), bc.counter(name));
        diff_count("dropped", a->netdev->dropped(), b->netdev->dropped());
    }

    for (Instance* inst : sides) inst->san_check();
    return report;
}

} // namespace ovsx::gen

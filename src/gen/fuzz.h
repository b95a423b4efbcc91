// Seeded packet/ruleset fuzzing on top of the differential harness.
//
// A splitmix64 seed fully determines both the generated ruleset and the
// packet sequence, so any divergence is reproducible from (seed, config,
// count) alone — the soak bench prints exactly that triple on failure.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/differential.h"
#include "sim/rng.h"

namespace ovsx::gen {

struct FuzzConfig {
    std::size_t n_ports = 4;
    std::uint32_t num_queues = 1; // RSS queues per NIC
    std::size_t n_rules = 12; // first-pass rules (ct recirc rules come on top)
    std::size_t n_flows = 24; // distinct 5-tuples the packet stream cycles over
    std::uint16_t n_zones = 2;
    bool use_ct = true;        // Ct+Recirc rules with ct_state second-pass rules
    bool use_nat = true;       // attach SNAT/DNAT (incl. port ranges) to ct rules
    bool use_vlan = true;      // VLAN-tagged traffic + vlan_tci-matching rules
    bool use_geneve = true;    // Geneve-encapsulated frames (outer 5-tuple fwd)
    bool use_icmp = true;      // echo + ICMP errors citing earlier flows
    bool use_malformed = true; // corpus from net::malform()
    std::uint32_t malformed_percent = 8;
    bool use_meters = false; // meter actions (explained divergence on eBPF)
    // INT telemetry: Geneve frames carry the INT option with one
    // pre-stamped origin record; instances run with INT stamping enabled
    // and verdicts are INT-stripped (DiffOptions::enable_int).
    bool use_int = false;
    bool use_fragments = false;    // re-badge some UDP frames as IP fragments
    bool use_extra_encaps = false; // rotate VXLAN/ERSPAN outers alongside Geneve
    // Burst-twin self-check: each iteration additionally drives the
    // identical sequence through two fresh netdev instances under one
    // chunked injection schedule of `batch_size`-packet rx bursts and
    // folds any divergence (there is no allowlist for this mode) into
    // the report. 0 disables; 1 degenerates to per-packet injection.
    std::size_t batch_size = 32;
    // Shard count for the conntrack tables on every provider
    // (DiffOptions::ct_shards). Sharding must be invisible to the
    // end-state digests; the soak rotates {1,4,16} to prove it.
    std::uint32_t shards = 1;
};

// Generates a random but eBPF-conscious ruleset: most rules match only
// in_port + 5-tuple dimensions (comparable across all three datapaths);
// a few deliberately match vlan_tci/dl_type to exercise the explained
// "ebpf-key-dimensions" path.
DiffRuleset generate_ruleset(sim::Rng& rng, const FuzzConfig& cfg);

// Generates `count` frames over cfg.n_flows tuples: UDP, TCP with
// SYN/ACK/RST cycles, ARP, VLAN-tagged, Geneve-encapsulated, ICMP echo,
// ICMP errors citing earlier packets, and malformed variants.
std::vector<DiffPacket> generate_packets(sim::Rng& rng, const FuzzConfig& cfg,
                                         std::size_t count);

// One full fuzz iteration: derive ruleset + packets from `seed`, run the
// differential harness, return its report.
DiffReport fuzz_run(std::uint64_t seed, const FuzzConfig& cfg, std::size_t count);

} // namespace ovsx::gen

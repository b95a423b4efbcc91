// ovsx::obs coverage counters — the COVERAGE_DEFINE analogue.
//
// Counter names are interned once into dense CounterIds; the hot path
// is one increment behind a function-local static, so there is no
// string hashing per packet. Per-ExecContext counts (sim layer) feed
// the same ids, and every per-context increment also bumps the global
// aggregate read by `coverage/show`.
//
// The global aggregate lives in per-thread cells, as OVS keeps its
// coverage counters. A thread's cells are allocated on its first
// increment; from then on only that thread writes them, with a relaxed
// load and a relaxed store (no locked read-modify-write). Readers sum
// the live cells with relaxed loads under the registry mutex, plus the
// retired total into which each thread's cells fold when it exits.
// coverage_reset() zeroes every cell, but a writer that loaded its cell
// before the reset stores its old count back, undoing the reset of its
// own cell; reset quiescent threads only.
//
// Naming convention (docs/OBSERVABILITY.md): dotted lower-case
// "<subsystem>.<event>", e.g. "emc.hit", "xdp.run", "xsk.rx_produce".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sync/annotations.h"

namespace ovsx::obs {

using CounterId = std::uint32_t;

// Upper bound on distinct registered counters; interning past this
// throws (a misuse — counter names must be static, not data-derived).
inline constexpr std::size_t kCoverageMax = 2048;

// Interns `name` (registering it on first use) and returns its id.
// Stable for the process lifetime.
CounterId coverage_id(const std::string& name);

// Lookup without registering; nullopt when `name` was never interned.
std::optional<CounterId> coverage_find(const std::string& name);

const std::string& coverage_name(CounterId id);
std::size_t coverage_registered();

// Global aggregate. The increment is O(1) and takes no lock after the
// thread's first; reads take the registry mutex and walk the threads.
OVSX_HOT void coverage_inc(CounterId id, std::uint64_t n = 1);
std::uint64_t coverage_value(CounterId id);

// (name, global count) rows sorted by name. By default only counters
// that ever fired are listed (OVS prints "hits" first too).
std::vector<std::pair<std::string, std::uint64_t>> coverage_snapshot(bool include_zero = false);

// Zeroes every global count; registrations (ids) survive.
void coverage_reset();

} // namespace ovsx::obs

// Bumps the process-global counter only. The name must be a constant
// expression in spirit: it is interned exactly once per call site.
#define OVSX_COVERAGE(name) OVSX_COVERAGE_N(name, 1)
#define OVSX_COVERAGE_N(name, n)                                                         \
    do {                                                                                 \
        static const ::ovsx::obs::CounterId ovsx_cov_id_ = ::ovsx::obs::coverage_id(name); \
        ::ovsx::obs::coverage_inc(ovsx_cov_id_, (n));                                    \
    } while (0)

// Bumps `ctx`'s per-context counter (which aggregates globally too).
#define OVSX_COVERAGE_CTX(ctx, name) OVSX_COVERAGE_CTX_N(ctx, name, 1)
#define OVSX_COVERAGE_CTX_N(ctx, name, n)                                                \
    do {                                                                                 \
        static const ::ovsx::obs::CounterId ovsx_cov_id_ = ::ovsx::obs::coverage_id(name); \
        (ctx).count(ovsx_cov_id_, (n));                                                  \
    } while (0)

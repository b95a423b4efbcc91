// skb lifecycle ledger: every tracked net::Packet carries a nonzero id
// and an ownership state machine (driver → stack → datapath → tx),
// with the full transition history kept for the provenance report.
//
// Detected classes: use-after-free (any transition on a freed or
// already-destroyed id), double-free, double-tx (Tx → Tx with no
// intermediate owner — a packet transmitted twice without being
// re-received), and at-teardown leaks (records still live after the
// owning run finished).
//
// Packets acquire an id only while hardened mode is on; id 0 means
// untracked and every entry point is a no-op for it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "san/report.h"

namespace ovsx::san {

enum class SkbState { Driver, Stack, Datapath, Tx, Freed };
const char* to_string(SkbState s);

// The out-of-line halves of the entry points below, which return
// inline for untracked packets (id 0, or no hardened mode to acquire).
namespace detail {
std::uint64_t skb_acquire_tracked(const char* origin, SkbState initial, Site site);
std::uint64_t skb_clone_tracked(std::uint64_t id, Site site);
void skb_transition_tracked(std::uint64_t id, SkbState next, Site site);
void skb_free_tracked(std::uint64_t id, Site site);
void skb_retire_tracked(std::uint64_t id) noexcept;
} // namespace detail

// Fresh nonzero id when hardened, else 0. `origin` names the rx path
// ("wire-rx", "afxdp-rx", ...) in the provenance report.
inline std::uint64_t skb_acquire(const char* origin, SkbState initial, Site site)
{
    return hardened() ? detail::skb_acquire_tracked(origin, initial, site) : 0;
}

// Tracked copy of `id` (packet clone for multi-output). Returns 0 for
// id 0 or an unknown id.
inline std::uint64_t skb_clone(std::uint64_t id, Site site)
{
    return id ? detail::skb_clone_tracked(id, site) : 0;
}

// Ownership transition. Freed/destroyed source → use-after-free;
// Tx while already Tx → double-tx.
inline void skb_transition(std::uint64_t id, SkbState next, Site site)
{
    if (id) detail::skb_transition_tracked(id, next, site);
}

// Explicit free (the kfree_skb analogue). Freeing twice is a violation.
inline void skb_free(std::uint64_t id, Site site)
{
    if (id) detail::skb_free_tracked(id, site);
}

// Destruction of the owning C++ object: always legal, drops the record.
inline void skb_retire(std::uint64_t id) noexcept
{
    if (id) detail::skb_retire_tracked(id);
}

// Leak detection: snapshot skb_next_id() before a run, then report
// every record with id >= first_id still live after it. Returns the
// number of leaks reported.
std::uint64_t skb_next_id();
std::size_t skb_leak_check_since(std::uint64_t first_id, Site site);

std::size_t skb_live_count();

// Cold path behind net::Packet's checked accessors: classifies which
// buffer region (tailroom vs past the allocation) the access would
// have hit and attaches the packet's ownership trail when it is a
// tracked skb. `kind` is "read" or "write"; `headroom`/`cap` describe
// the underlying buffer (data() starts at `headroom`, buffer ends at
// `cap`).
void report_packet_oob(const char* kind, std::size_t offset, std::size_t want,
                       std::size_t pkt_len, std::size_t headroom, std::size_t cap,
                       std::uint64_t skb_id, Site site);

} // namespace ovsx::san

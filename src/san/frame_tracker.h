// AF_XDP umem-frame lifecycle tracker.
//
// A frame address cycles user pool → fill ring → kernel rx → rx ring →
// user pool (rx side) and user pool → tx ring → completion ring → user
// pool (tx side). The tracker enforces that cycle per registered frame:
// posting a frame that is already on the fill or tx ring, completing a
// frame that was never transmitted, or tearing the socket down with
// frames still owned by the kernel are all violations, reported with
// the frame's full transition history.
//
// Only frames explicitly registered (NetdevAfxdp registers its umem on
// construction) are tracked — tests that drive raw rings directly stay
// out of scope. Scopes come from san::new_scope(), one per umem.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "san/report.h"

namespace ovsx::san {

enum class FrameState { UserPool, FillRing, KernelRx, RxRing, TxRing, CompRing };
const char* to_string(FrameState s);

// Registers a frame under `scope`. No-op when hardened mode is off
// (the scope then stays untracked and transitions are free).
void frame_register(std::uint64_t scope, std::uint64_t addr, FrameState initial, Site site);
bool frame_scope_tracked(std::uint64_t scope);

namespace detail {
// Scopes with registered frames. While none is (every run outside
// hardened mode), frame_transition returns inline. A scope registered
// in hardened mode stays tracked after hardened mode is switched off.
extern std::atomic<std::size_t> g_tracked_scopes;
void frame_transition_tracked(std::uint64_t scope, std::uint64_t addr, FrameState next,
                              Site site);
} // namespace detail

// Moves a registered frame to `next`, checking the transition against
// the ring ownership cycle. Untracked scopes are ignored; unknown
// addresses within a tracked scope are violations (a descriptor
// pointing outside the registered umem).
inline void frame_transition(std::uint64_t scope, std::uint64_t addr, FrameState next,
                             Site site)
{
    if (detail::g_tracked_scopes.load(std::memory_order_relaxed) == 0) return;
    detail::frame_transition_tracked(scope, addr, next, site);
}

// Teardown check: no frame may still be owned by the kernel
// (KernelRx) or in flight on the tx ring. Returns violations reported.
std::size_t frame_expect_quiesced(std::uint64_t scope, Site site);

// Drops every record under `scope` (umem destruction).
void frame_release_scope(std::uint64_t scope);

std::size_t frame_count(std::uint64_t scope);

} // namespace ovsx::san

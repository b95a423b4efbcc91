// ovsx::san::lockset — dynamic concurrency checking for the annotated
// sync layer: the runtime complement of clang's -Wthread-safety.
//
// Two checkers share the acquisition stream that sync::Mutex /
// sync::SharedMutex publish through the sync hook seam:
//
//  - Eraser-style lockset race detection. Every annotated shared object
//    touched through an OVSX_SAN_ACCESS seam keeps a candidate set
//    C(obj) of locks that were held on *every* access so far (reads
//    intersect with all held locks, writes with exclusively-held ones).
//    Following Eraser's state machine, refinement only starts once a
//    second thread touches the object — single-owner initialization
//    without locks stays silent. A write access that empties C(obj)
//    is a "lockset-race" violation: there exists no lock that protects
//    this object consistently.
//
//  - Lock-order (deadlock) detection. Acquiring B while holding A
//    inserts the edge A->B into a global acquisition DAG; an insertion
//    that closes a cycle (the classic ABBA) is a "lock-order-inversion"
//    violation, reported with the full cycle path. Re-acquiring a lock
//    already held by the same thread is "recursive-acquire" (a
//    guaranteed self-deadlock on a non-recursive mutex).
//
// Everything is gated on san::hardened() and is thread-safe; violations
// route through san::report() so they fold into ScopedCollect, the
// fuzzer's reports, and the hardened abort-with-provenance path exactly
// like every other san checker.
//
// Determinism: with the logical-thread override seam, a single OS
// thread can replay a multi-thread interleaving deterministically —
// the negative tests (seeded race, seeded ABBA) and the determinism
// test (two identical runs, identical violation sets) rely on this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "san/report.h"

namespace ovsx::san::lockset {

// --- logical-thread seam ------------------------------------------------

// While set to a nonzero id, this OS thread reports accesses and
// acquisitions as logical thread `tid` (test use). 0 restores the
// automatically assigned per-OS-thread id (which lives in a disjoint
// id range, so overrides can never collide with real threads).
void override_thread(std::uint32_t tid);
std::uint32_t current_thread();

struct ScopedThread {
    explicit ScopedThread(std::uint32_t tid) { override_thread(tid); }
    ~ScopedThread() { override_thread(0); }
    ScopedThread(const ScopedThread&) = delete;
    ScopedThread& operator=(const ScopedThread&) = delete;
};

// --- acquisition stream (fed by the sync hook seam) ---------------------

void on_acquire(std::uint32_t lock_id, const char* name, bool exclusive);
void on_release(std::uint32_t lock_id);

// Held locks of the current (logical) thread, innermost last.
std::size_t held_count();

// --- shared-state access seam -------------------------------------------

void on_access(const void* obj, const char* name, bool write, Site site);

// Instrumentation seam for annotated shared state. `ptr` is the object
// identity (usually the owning table), `name` the human-readable label
// violations carry. Compiles to one predicted branch when hardened
// mode is off.
#define OVSX_SAN_ACCESS_AT(ptr, name, is_write)                                                  \
    do {                                                                                         \
        if (::ovsx::san::hardened()) {                                                           \
            ::ovsx::san::lockset::on_access(static_cast<const void*>(ptr), (name), (is_write),   \
                                            OVSX_SITE);                                          \
        }                                                                                        \
    } while (0)
// Write access (the conservative default) / read access to `obj`.
#define OVSX_SAN_ACCESS(obj) OVSX_SAN_ACCESS_AT(&(obj), #obj, true)
#define OVSX_SAN_ACCESS_READ(obj) OVSX_SAN_ACCESS_AT(&(obj), #obj, false)

// --- diagnostics / test support ----------------------------------------

struct Stats {
    std::uint64_t acquisitions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t order_edges = 0;
    std::uint64_t tracked_objects = 0;
};
Stats stats();

// Forgets the tracked state of `obj`, whether or not hardened mode is
// on (the state may date from a hardened scope). Objects call it when
// destroyed, so a later object at the same address does not inherit
// their candidate lockset.
void forget(const void* obj);

// Forgets the acquisition DAG, every tracked object state and every
// held-lock set (test isolation; the determinism test replays the same
// scenario across two reset() boundaries).
void reset();

} // namespace ovsx::san::lockset

// Portable clang thread-safety ("capability") annotation macros.
//
// The PMD scale-out on the roadmap turns the simulation's shared tables
// (megaflow, both conntracks, the eBPF map + shadow, the netlink
// replica, the obs registries) into genuinely concurrent state — the
// regime where the paper's OVS lineage historically grew its worst bugs
// (RCU misuse, classifier races). These macros make the locking
// discipline part of the type system: under clang, -Wthread-safety
// proves at compile time that every OVSX_GUARDED_BY member is only
// touched with its capability held; under other compilers they expand
// to nothing and the same discipline is enforced dynamically by the
// ovsx::san lockset checker (san/lockset.h) and statically by
// tools/ovsx_lint.
//
// Hardened builds add -Werror=thread-safety when the compiler is clang
// (top-level CMakeLists.txt), so an unguarded access is un-mergeable,
// not a warning.
#pragma once

#if defined(__clang__)
#define OVSX_TS_ATTR(x) __attribute__((x))
#else
#define OVSX_TS_ATTR(x) // no-op outside clang
#endif

// Type attributes: a class that is a lock (capability), or a scoped
// guard that acquires on construction and releases on destruction.
#define OVSX_CAPABILITY(x) OVSX_TS_ATTR(capability(x))
#define OVSX_SCOPED_CAPABILITY OVSX_TS_ATTR(scoped_lockable)

// Data-member attributes: the member may only be read with `x` held
// (shared or exclusive) and only written with `x` held exclusively.
#define OVSX_GUARDED_BY(x) OVSX_TS_ATTR(guarded_by(x))
#define OVSX_PT_GUARDED_BY(x) OVSX_TS_ATTR(pt_guarded_by(x))

// Function attributes: lock-order declarations…
#define OVSX_ACQUIRED_BEFORE(...) OVSX_TS_ATTR(acquired_before(__VA_ARGS__))
#define OVSX_ACQUIRED_AFTER(...) OVSX_TS_ATTR(acquired_after(__VA_ARGS__))
// …capabilities the caller must already hold…
#define OVSX_REQUIRES(...) OVSX_TS_ATTR(requires_capability(__VA_ARGS__))
#define OVSX_REQUIRES_SHARED(...) OVSX_TS_ATTR(requires_shared_capability(__VA_ARGS__))
// …capabilities the function acquires / releases…
#define OVSX_ACQUIRE(...) OVSX_TS_ATTR(acquire_capability(__VA_ARGS__))
#define OVSX_ACQUIRE_SHARED(...) OVSX_TS_ATTR(acquire_shared_capability(__VA_ARGS__))
#define OVSX_RELEASE(...) OVSX_TS_ATTR(release_capability(__VA_ARGS__))
#define OVSX_RELEASE_SHARED(...) OVSX_TS_ATTR(release_shared_capability(__VA_ARGS__))
#define OVSX_TRY_ACQUIRE(...) OVSX_TS_ATTR(try_acquire_capability(__VA_ARGS__))
// …and capabilities the function must NOT hold (deadlock prevention).
#define OVSX_EXCLUDES(...) OVSX_TS_ATTR(locks_excluded(__VA_ARGS__))

#define OVSX_ASSERT_CAPABILITY(x) OVSX_TS_ATTR(assert_capability(x))
#define OVSX_RETURN_CAPABILITY(x) OVSX_TS_ATTR(lock_returned(x))

// Escape hatch — every use must carry a comment saying why the analysis
// cannot see the synchronization (e.g. a guard that locks every shard of
// a table in a loop, a quiescent-harness accessor). tools/ovsx_lint has
// no budget for these, but reviewers do.
#define OVSX_NO_THREAD_SAFETY_ANALYSIS OVSX_TS_ATTR(no_thread_safety_analysis)

// Marks a per-packet hot-path function. Besides the compiler hint, this
// is a contract enforced by tools/ovsx_lint: no heap allocation
// keywords (new/make_unique/make_shared/malloc/...) may appear in the
// body of an OVSX_HOT function.
#if defined(__GNUC__) || defined(__clang__)
#define OVSX_HOT __attribute__((hot))
#else
#define OVSX_HOT
#endif

// The same ovsx_lint contract without the compiler hint. GCC groups hot
// functions in .text.hot, so the hint moves the code of every other hot
// function too: on the userspace datapath's burst entry points it cost
// perfbench's nsx-conn workload 5-10 % on every provider (4-core host),
// the kernel and eBPF ones included, which run none of that code.
#define OVSX_NO_ALLOC

// Thread-safety annotation macros, checked two ways:
//
//  * Under clang they expand to the thread-safety-analysis attributes
//    (-Wthread-safety), so a clang build gets the compiler's own
//    interprocedural checking for free.
//  * Under every compiler, tools/shield_analyze's lock-lint pass checks
//    the same contracts lexically: a member marked SHIELD_GUARDED_BY(m)
//    may only be touched inside a scope that acquired m (atomics: only
//    writes need the lock — lock-free readers are a design point, see
//    TicketIssuer's epoch); a function marked SHIELD_REQUIRES(m)
//    must be entered with m held and its body is checked as if it were.
//    SHIELD_THREAD_CONFINED declares per-thread state (e.g. the
//    thread_local BufferPool and X25519 fixed-point cache) that needs
//    no lock by construction.
//
// The macros are deliberately a no-op for GCC/MSVC: they are contracts
// first, attributes second.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define SHIELD5G_THREAD_ATTR(x) __attribute__((x))
#else
#define SHIELD5G_THREAD_ATTR(x)
#endif

/// Member data that must only be accessed while `x` is held.
#define SHIELD_GUARDED_BY(x) SHIELD5G_THREAD_ATTR(guarded_by(x))

/// Function that must be called with `x` already held.
#define SHIELD_REQUIRES(x) \
  SHIELD5G_THREAD_ATTR(exclusive_locks_required(x))

/// Member data confined to a single thread (thread_local owner or
/// single-writer design); exempt from lock-lint by declaration.
#define SHIELD_THREAD_CONFINED

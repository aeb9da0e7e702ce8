// CciCheck — the message-lifecycle & concurrency validation layer.
//
// Converse's core contract is manual ownership of generalized messages: a
// handler may only keep a delivered buffer by calling CmiGrabBuffer, and
// everything else is freed behind the caller's back (paper §3.1.3).  With
// one OS thread per PE those ownership bugs are silent data races.  CciCheck
// instruments the message and scheduler hot paths with a per-buffer
// ownership state machine, handler-table validation, cross-PE access
// assertions and scheduler/thread invariant checks.
//
// The subsystem is compile-time selectable: configure with
// `-DCONVERSE_CHECK=ON` (default ON for Debug builds).  When disabled every
// hook below is an empty inline function, so Release hot paths compile to
// exactly the code they had before CciCheck existed.
//
// A fatal violation prints one diagnostic line naming the buffer, the PE and
// the violated rule, then aborts:
//
//   [CciCheck] fatal: rule=double-free pe=1 buffer=0x55e2... : CmiFree of an
//   already-freed message (handler 7, size 64)
//
// See docs/ANALYSIS.md for the full rule catalogue and how each diagnostic
// maps to a buggy program shape.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef CONVERSE_CHECK_ENABLED
#define CONVERSE_CHECK_ENABLED 0
#endif

namespace converse {

/// The rules CciCheck enforces.  Fatal rules abort the process; warning
/// rules print to stderr and increment CciCheckCounters().warnings.
enum class CciRule : int {
  // -- buffer ownership state machine (fatal) --
  kDoubleFree = 0,       // CmiFree of an already-freed message
  kForeignFree,          // CmiFree of a pointer not from CmiAlloc
  kUseAfterFree,         // send/enqueue/dispatch of an already-freed message
  kUseAfterSend,         // touching a buffer after ownership moved to the
                         //   MMI (send) or the scheduler queue (enqueue)
  kUngrabbedFree,        // CmiFree of a system buffer without CmiGrabBuffer
  kUngrabbedSend,        // send-and-free of an ungrabbed system buffer
  kDoubleGrab,           // CmiGrabBuffer twice on the same delivery
  kGrabOutsideDelivery,  // CmiGrabBuffer on a buffer this PE is not delivering
  kDoubleEnqueue,        // CsdEnqueue of a message already in a queue
  kEnqueueNotOwned,      // CsdEnqueue of an in-flight or ungrabbed buffer
  // -- handler table (fatal) --
  kNoHandler,            // dispatch of a message whose handler was never set
  kBadHandler,           // handler index outside this PE's table
  kHandlerDivergence,    // sender registered the handler, this PE did not
  // -- cross-PE / threading (fatal) --
  kNonPeThread,          // Converse call from a thread that is not a PE
  kCrossPeAccess,        // touching another PE's state (e.g. its CthThread)
  kThreadResumedTwice,   // CthResume of an exited thread
  kThreadUseAfterFree,   // Cth operation on a freed/unknown thread object
  // -- scheduler/queue invariants --
  kQueueCorruption,      // scheduler queue holds a corrupted message (fatal)
  kExitImbalance,        // CsdExitScheduler never consumed by a scheduler
                         //   (warning, reported at machine teardown)
  kThreadLeak,           // live Cth threads at machine teardown (warning)
  kBufferLeak,           // live message buffers at machine teardown (warning)
  // -- gather/scatter argument validation (fatal, checked in all builds) --
  kGatherOverflow,       // CmiVectorSend segment sizes negative or summing
                         //   past the 32-bit wire message size
};

/// Stable kebab-case name of a rule (what the diagnostic line prints).
const char* CciRuleName(CciRule rule);

/// True when the library was configured with -DCONVERSE_CHECK=ON.
constexpr bool CciCheckEnabled() { return CONVERSE_CHECK_ENABLED != 0; }

/// Process-wide checker counters.  When the checker is disabled,
/// live_buffers is -1 and every other field is 0.
struct CciCounters {
  std::int64_t live_buffers = -1;  // currently allocated Converse messages
  std::uint64_t allocs = 0;        // CmiAlloc calls observed
  std::uint64_t frees = 0;         // CmiFree calls observed
  std::uint64_t grabs = 0;         // CmiGrabBuffer calls observed
  std::uint64_t warnings = 0;      // non-fatal rule reports
};
CciCounters CciCheckCounters();

namespace detail::check {

#if CONVERSE_CHECK_ENABLED

// Hot-path hooks, called from the core runtime.  Real implementations live
// in src/check/check.cpp.
void OnAlloc(void* msg, std::size_t nbytes);
void OnFreeProbe(const void* msg);  // double free? (before any header read)
void OnFree(void* msg);           // validate + poison; caller deletes after
void OnReclaim(void* msg);        // machine-layer teardown free: skip checks
void OnCopyReset(void* msg);      // CopyMessage rewrote the header flags
void OnSend(void* msg);           // ownership handed to the machine layer
void OnEnqueue(void* msg);        // entering a CqsQueue
void OnDequeue(void* msg);        // leaving a CqsQueue (dequeuer owns it)
void OnDeliverBegin(void* msg, bool system_owned);
void OnDeliverEnd(void* msg);     // ungrabbed: dispatcher frees next
void OnMmiReturn(void* msg);      // CmiGetMsg/CmiGetSpecificMsg result
void OnGrab(void* msg, bool already_grabbed);
void OnHandlerRegister();         // publish the PE's handler count
void OnDispatchHandler(const void* msg, std::size_t table_size);
void OnPeFinish();                // teardown invariants (exit balance, leaks)
void CheckInsidePe(const void* where);

#else

inline void OnAlloc(void*, std::size_t) {}
inline void OnFreeProbe(const void*) {}
inline void OnFree(void*) {}
inline void OnReclaim(void*) {}
inline void OnCopyReset(void*) {}
inline void OnSend(void*) {}
inline void OnEnqueue(void*) {}
inline void OnDequeue(void*) {}
inline void OnDeliverBegin(void*, bool) {}
inline void OnDeliverEnd(void*) {}
inline void OnMmiReturn(void*) {}
inline void OnGrab(void*, bool) {}
inline void OnHandlerRegister() {}
inline void OnDispatchHandler(const void*, std::size_t) {}
inline void OnPeFinish() {}
inline void CheckInsidePe(const void*) {}

#endif  // CONVERSE_CHECK_ENABLED

// Cold diagnostic sinks.  Always defined (tiny, never on a hot path) so
// subsystems can report violations without preprocessor conditionals; call
// sites gate on CciCheckEnabled(), which constant-folds away when OFF.
[[noreturn]] void Violate(CciRule rule, const void* buffer, const char* fmt,
                          ...) __attribute__((format(printf, 3, 4)));
void Warn(CciRule rule, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
[[noreturn]] void OnGrabMiss(void* msg);

}  // namespace detail::check
}  // namespace converse

// CciCheck implementation — see include/converse/check.h for the contract.
//
// The checker keeps two kinds of state:
//  * a process-wide registry of live CmiAlloc'd buffers (mutex-guarded hash
//    set), which makes double-free and foreign-pointer-free reports precise
//    instead of relying on reading a magic word through a dangling pointer;
//  * a per-buffer ownership state carried in the low bits of
//    MsgHeader::flags (owned -> in-flight -> delivering -> owned/freed, plus
//    enqueued for scheduler-queue residency).
//
// Everything in this file except the cold diagnostic sinks is compiled only
// when CONVERSE_CHECK_ENABLED is set; the hooks are empty inlines otherwise.
#include "converse/check.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "converse/msg.h"
#include "core/pe_state.h"

#if CONVERSE_CHECK_ENABLED
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#endif

namespace converse {

const char* CciRuleName(CciRule rule) {
  switch (rule) {
    case CciRule::kDoubleFree: return "double-free";
    case CciRule::kForeignFree: return "foreign-free";
    case CciRule::kUseAfterFree: return "use-after-free";
    case CciRule::kUseAfterSend: return "use-after-send";
    case CciRule::kUngrabbedFree: return "ungrabbed-free";
    case CciRule::kUngrabbedSend: return "ungrabbed-send";
    case CciRule::kDoubleGrab: return "double-grab";
    case CciRule::kGrabOutsideDelivery: return "grab-outside-delivery";
    case CciRule::kDoubleEnqueue: return "double-enqueue";
    case CciRule::kEnqueueNotOwned: return "enqueue-not-owned";
    case CciRule::kNoHandler: return "no-handler";
    case CciRule::kBadHandler: return "bad-handler";
    case CciRule::kHandlerDivergence: return "handler-divergence";
    case CciRule::kNonPeThread: return "non-pe-thread";
    case CciRule::kCrossPeAccess: return "cross-pe-access";
    case CciRule::kThreadResumedTwice: return "thread-resumed-twice";
    case CciRule::kThreadUseAfterFree: return "thread-use-after-free";
    case CciRule::kQueueCorruption: return "queue-corruption";
    case CciRule::kExitImbalance: return "exit-imbalance";
    case CciRule::kThreadLeak: return "thread-leak";
    case CciRule::kBufferLeak: return "buffer-leak";
    case CciRule::kGatherOverflow: return "gather-overflow";
  }
  return "unknown";
}

namespace detail::check {
namespace {

#if CONVERSE_CHECK_ENABLED

// Ownership states, carried in MsgHeader::flags bits 0-1.  kStOwned is 0 so
// a header written by uninstrumented code (flags = kMsgFlagNone) reads as
// plainly owned by whoever holds the pointer.
enum MsgOwnState : std::uint8_t {
  kStOwned = 0,       // caller owns the buffer (fresh, grabbed, dequeued)
  kStInFlight = 1,    // machine layer owns it (sent, awaiting delivery)
  kStEnqueued = 2,    // sitting in a scheduler queue
  kStDelivering = 3,  // system-owned, a handler is running on it (or it is
                      // the pending CmiGetMsg result)
};
constexpr std::uint8_t kStateMask = 0x3;

MsgOwnState State(const void* msg) {
  return static_cast<MsgOwnState>(Header(msg)->flags & kStateMask);
}
void SetState(void* msg, MsgOwnState s) {
  auto* h = Header(msg);
  // A shared-broadcast view is one physical header dispatched concurrently
  // on every PE of the tree; writing per-PE ownership state into it would
  // be a data race (and nonsense — the block's refcount is the ownership).
  // The view's state bits are cleared at the root and stay kStOwned.
  if ((h->flags & kMsgFlagShared) != 0) return;
  h->flags = static_cast<std::uint8_t>((h->flags & ~kStateMask) | s);
}

struct Registry {
  std::mutex mu;
  std::unordered_map<void*, std::size_t> live;  // ptr -> allocation bytes
  // Recently freed pointers (bounded FIFO + set).  Lets OnFree distinguish
  // double-free from foreign-free WITHOUT dereferencing a dangling pointer,
  // so the checker itself stays clean under AddressSanitizer.
  std::unordered_set<void*> freed;
  std::deque<void*> freed_fifo;
};
constexpr std::size_t kFreedHistoryCap = 8192;
Registry& Reg() {
  static Registry* r = new Registry;  // leaked: outlives static destructors
  return *r;
}

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_grabs{0};

/// Poison byte written over freed payloads so a use-after-free reads as
/// garbage deterministically instead of silently working.
constexpr unsigned char kPoison = 0xDB;

#endif  // CONVERSE_CHECK_ENABLED

std::atomic_uint64_t g_warnings{0};

int CurrentPe() {
  const PeState* pe = Cpv();
  return pe != nullptr ? pe->mype : -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cold diagnostic sinks (always compiled; call sites gate on
// CciCheckEnabled() which constant-folds when the checker is off).
// ---------------------------------------------------------------------------

void Violate(CciRule rule, const void* buffer, const char* fmt, ...) {
  char detail[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(detail, sizeof(detail), fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "[CciCheck] fatal: rule=%s pe=%d buffer=%p : %s\n",
               CciRuleName(rule), CurrentPe(), buffer, detail);
  std::fflush(stderr);
  std::abort();
}

void Warn(CciRule rule, const char* fmt, ...) {
  char detail[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(detail, sizeof(detail), fmt, ap);
  va_end(ap);
  g_warnings.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "[CciCheck] warning: rule=%s pe=%d : %s\n",
               CciRuleName(rule), CurrentPe(), detail);
}

void OnGrabMiss(void* msg) {
  Violate(CciRule::kGrabOutsideDelivery, msg,
          "CmiGrabBuffer on a buffer this PE is not currently delivering "
          "(wrong PE, already-freed delivery, or a pointer that was never a "
          "delivered message)");
}

#if CONVERSE_CHECK_ENABLED

// ---------------------------------------------------------------------------
// Buffer lifecycle
// ---------------------------------------------------------------------------

void OnAlloc(void* msg, std::size_t nbytes) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  Registry& r = Reg();
  std::scoped_lock lk(r.mu);
  r.live[msg] = nbytes;
  r.freed.erase(msg);  // the address has been legitimately reused
  // CmiAlloc just wrote a fresh header (flags = 0 == kStOwned).
}

void OnFreeProbe(const void* msg) {
  Registry& r = Reg();
  std::scoped_lock lk(r.mu);
  void* p = const_cast<void*>(msg);
  if (r.live.count(p) != 0 || r.freed.count(p) == 0) return;
  // A shared-broadcast view is never registered: it lies inside its live
  // block, and a freed entry at its address is a stale neighbour's.  Views
  // skip the ownership diagnostics, so leave this one to CmiFree.
  const auto addr = reinterpret_cast<std::uintptr_t>(msg);
  for (const auto& [base, bytes] : r.live) {
    const auto lo = reinterpret_cast<std::uintptr_t>(base);
    if (lo < addr && addr < lo + bytes) return;
  }
  Violate(CciRule::kDoubleFree, msg, "CmiFree of an already-freed message");
}

void OnFree(void* msg) {
  {
    Registry& r = Reg();
    std::scoped_lock lk(r.mu);
    if (r.live.count(msg) == 0) {
      // Do NOT dereference msg here: it is either freed or never ours.
      if (r.freed.count(msg) != 0) {
        Violate(CciRule::kDoubleFree, msg,
                "CmiFree of an already-freed message");
      }
      if (reinterpret_cast<std::uintptr_t>(msg) % 16 != 0) {
        Violate(CciRule::kForeignFree, msg,
                "CmiFree of a misaligned pointer that cannot have come from "
                "CmiAlloc");
      }
      Violate(CciRule::kForeignFree, msg,
              "CmiFree of a pointer that is not a live CmiAlloc'd message");
    }
  }
  const MsgHeader* h = Header(msg);
  if (h->magic != kMsgMagicAlive) {
    Violate(CciRule::kForeignFree, msg,
            "CmiFree of a live allocation whose header magic is corrupted "
            "(0x%08x)", h->magic);
  }
  switch (State(msg)) {
    case kStOwned:
      break;
    case kStInFlight:
      Violate(CciRule::kUseAfterSend, msg,
              "CmiFree of a buffer already handed to the machine layer "
              "(handler %u, size %u): the sender gave up ownership",
              h->handler, h->total_size);
    case kStEnqueued:
      Violate(CciRule::kUseAfterSend, msg,
              "CmiFree of a message still in a scheduler queue "
              "(handler %u, size %u)", h->handler, h->total_size);
    case kStDelivering:
      Violate(CciRule::kUngrabbedFree, msg,
              "CmiFree of a system-owned buffer being delivered (handler %u, "
              "size %u); call CmiGrabBuffer first", h->handler,
              h->total_size);
  }
  std::size_t alloc_bytes = 0;
  {
    Registry& r = Reg();
    std::scoped_lock lk(r.mu);
    auto it = r.live.find(msg);
    alloc_bytes = it->second;
    r.live.erase(it);
    if (r.freed.insert(msg).second) {
      r.freed_fifo.push_back(msg);
      if (r.freed_fifo.size() > kFreedHistoryCap) {
        r.freed.erase(r.freed_fifo.front());
        r.freed_fifo.pop_front();
      }
    }
  }
  g_frees.fetch_add(1, std::memory_order_relaxed);
  // Poison the payload (using the registry's allocation size, immune to a
  // corrupted total_size field) so a kept pointer reads deterministic junk.
  if (alloc_bytes > sizeof(MsgHeader)) {
    std::memset(CmiMsgPayload(msg), kPoison,
                alloc_bytes - sizeof(MsgHeader));
  }
}

void OnReclaim(void* msg) {
  // Machine-layer teardown / scatter consumption: the machine owns whatever
  // it drains, regardless of the recorded state.
  SetState(msg, kStOwned);
}

void OnCopyReset(void* msg) {
  // CopyMessage memcpy'd a foreign header over this fresh allocation; the
  // copy is a brand-new owned buffer whatever the original's state was.
  SetState(msg, kStOwned);
}

void OnSend(void* msg) {
  const MsgHeader* h = Header(msg);
  if (h->magic != kMsgMagicAlive) {
    Violate(CciRule::kUseAfterFree, msg,
            "send of a freed message (header magic 0x%08x)", h->magic);
  }
  switch (State(msg)) {
    case kStOwned:
      break;
    case kStInFlight:
      Violate(CciRule::kUseAfterSend, msg,
              "send of a buffer already handed to the machine layer "
              "(handler %u, size %u): double send-and-free?", h->handler,
              h->total_size);
    case kStEnqueued:
      Violate(CciRule::kUseAfterSend, msg,
              "send of a message still in a scheduler queue (handler %u, "
              "size %u)", h->handler, h->total_size);
    case kStDelivering:
      Violate(CciRule::kUngrabbedSend, msg,
              "send-and-free of a system-owned buffer being delivered "
              "(handler %u, size %u); call CmiGrabBuffer first", h->handler,
              h->total_size);
  }
  SetState(msg, kStInFlight);
}

void OnEnqueue(void* msg) {
  const MsgHeader* h = Header(msg);
  if (h->magic != kMsgMagicAlive) {
    Violate(CciRule::kUseAfterFree, msg,
            "enqueue of a freed message (header magic 0x%08x)", h->magic);
  }
  switch (State(msg)) {
    case kStOwned:
      break;
    case kStEnqueued:
      Violate(CciRule::kDoubleEnqueue, msg,
              "enqueue of a message already in a scheduler queue "
              "(handler %u, size %u)", h->handler, h->total_size);
    case kStInFlight:
      Violate(CciRule::kEnqueueNotOwned, msg,
              "enqueue of a buffer owned by the machine layer (handler %u, "
              "size %u)", h->handler, h->total_size);
    case kStDelivering:
      Violate(CciRule::kEnqueueNotOwned, msg,
              "enqueue of a system-owned buffer being delivered "
              "(handler %u, size %u); call CmiGrabBuffer first", h->handler,
              h->total_size);
  }
  SetState(msg, kStEnqueued);
}

void OnDequeue(void* msg) {
  const MsgHeader* h = Header(msg);
  if (h->magic != kMsgMagicAlive) {
    Violate(CciRule::kQueueCorruption, msg,
            "scheduler queue returned a freed or corrupted message (header "
            "magic 0x%08x); something freed a queued buffer", h->magic);
  }
  // Shared-broadcast views never carry state bits (see SetState), so a
  // grabbed-then-enqueued view legitimately dequeues as kStOwned.
  if ((h->flags & kMsgFlagShared) == 0 && State(msg) != kStEnqueued) {
    Violate(CciRule::kQueueCorruption, msg,
            "scheduler queue returned a message whose ownership state is "
            "%d, not enqueued; the queue or the header was corrupted",
            static_cast<int>(State(msg)));
  }
  SetState(msg, kStOwned);
}

void OnDeliverBegin(void* msg, bool system_owned) {
  const MsgHeader* h = Header(msg);
  if (h->magic != kMsgMagicAlive) {
    Violate(CciRule::kUseAfterFree, msg,
            "dispatch of a freed message (header magic 0x%08x, handler %u)",
            h->magic, h->handler);
  }
  if (system_owned) SetState(msg, kStDelivering);
}

void OnDeliverEnd(void* msg) {
  // Handler returned without grabbing; the dispatcher frees the buffer now.
  SetState(msg, kStOwned);
}

void OnMmiReturn(void* msg) {
  // Buffer returned by CmiGetMsg/CmiGetSpecificMsg: MMI-owned until the
  // next MMI call unless grabbed.
  SetState(msg, kStDelivering);
}

void OnGrab(void* msg, bool already_grabbed) {
  g_grabs.fetch_add(1, std::memory_order_relaxed);
  if (already_grabbed) {
    Violate(CciRule::kDoubleGrab, msg,
            "CmiGrabBuffer called twice for the same delivery (handler %u)",
            Header(msg)->handler);
  }
  SetState(msg, kStOwned);
}

// ---------------------------------------------------------------------------
// Handler table
// ---------------------------------------------------------------------------

void OnHandlerRegister() {
  PeState& pe = CpvChecked();
  pe.published_handlers.store(static_cast<std::uint32_t>(pe.handlers.size()),
                              std::memory_order_release);
}

void OnDispatchHandler(const void* msg, std::size_t table_size) {
  const MsgHeader* h = Header(msg);
  if (h->handler == 0xffffffffu) {
    Violate(CciRule::kNoHandler, msg,
            "dispatch of a message whose handler was never set (size %u, "
            "src pe %u); call CmiSetHandler before sending", h->total_size,
            h->source_pe);
  }
  if (h->handler >= table_size) {
    const PeState* pe = Cpv();
    // The divergence diagnostic peeks at the sender's published handler
    // count, which only exists when the sender PE is hosted in this
    // process (multi-node machines host a contiguous slice).
    if (pe != nullptr && pe->machine != nullptr &&
        h->source_pe < pe->npes &&
        pe->machine->IsLocalPe(h->source_pe)) {
      const std::uint32_t src_count =
          pe->machine->Pe(h->source_pe)
              .published_handlers.load(std::memory_order_acquire);
      if (h->handler < src_count) {
        Violate(CciRule::kHandlerDivergence, msg,
                "handler %u is registered on sender PE %u (%u handlers) but "
                "not on this PE (%zu handlers); per-PE handler tables "
                "diverged — register handlers identically on every PE",
                h->handler, h->source_pe, src_count, table_size);
      }
    }
    Violate(CciRule::kBadHandler, msg,
            "handler index %u is outside this PE's handler table "
            "(%zu registered)", h->handler, table_size);
  }
}

// ---------------------------------------------------------------------------
// Cross-PE / scheduler invariants
// ---------------------------------------------------------------------------

void CheckInsidePe(const void* where) {
  if (Cpv() == nullptr) {
    Violate(CciRule::kNonPeThread, nullptr,
            "%s called from a thread that is not a PE of a running machine",
            static_cast<const char*>(where));
  }
}

void OnPeFinish() {
  PeState& pe = CpvChecked();
  if (pe.exit_requested) {
    Warn(CciRule::kExitImbalance,
         "PE %d finished with an unconsumed CsdExitScheduler request; "
         "CsdExitScheduler was called more times than schedulers ran",
         pe.mype);
  }
}

#endif  // CONVERSE_CHECK_ENABLED

}  // namespace detail::check

CciCounters CciCheckCounters() {
  CciCounters out;
#if CONVERSE_CHECK_ENABLED
  {
    auto& r = detail::check::Reg();
    std::scoped_lock lk(r.mu);
    out.live_buffers = static_cast<std::int64_t>(r.live.size());
  }
  out.allocs = detail::check::g_allocs.load(std::memory_order_relaxed);
  out.frees = detail::check::g_frees.load(std::memory_order_relaxed);
  out.grabs = detail::check::g_grabs.load(std::memory_order_relaxed);
#endif
  out.warnings =
      detail::check::g_warnings.load(std::memory_order_relaxed);
  return out;
}

}  // namespace converse

// The Converse Machine Interface — MMI calls (paper §3.1.3 and appendix §3).
//
// These functions may only be called from inside a PE thread of a running
// machine (i.e. from the entry function, handlers, or thread objects).
#pragma once

#include <cstddef>
#include <cstdint>

#include "converse/handlers.h"
#include "converse/msg.h"

namespace converse {

// ---------------------------------------------------------------------------
// Processor identity (appendix §3.6)
// ---------------------------------------------------------------------------

/// Logical PE number of the caller, in [0, CmiNumPes()).
int CmiMyPe();

/// Total number of PEs in the running machine.
int CmiNumPes();

/// Paper's spelling (appendix uses CmiNumPe()).
inline int CmiNumPe() { return CmiNumPes(); }

/// Node of the caller, in [0, CmiNumNodes()).  A "node" is the unit that
/// shares an address space: all PEs of one node are threads of one process
/// (converse/machine.h CmiTransport).  Single-process machines are one
/// node, so CmiMyNode() == 0 and CmiNumNodes() == 1.
int CmiMyNode();

/// Number of nodes in the running machine.
int CmiNumNodes();

/// Node that owns PE `pe` (block distribution: each node owns a contiguous
/// PE range).
int CmiNodeOf(int pe);

/// First PE of node `node`.
int CmiNodeFirst(int node);

/// Number of PEs on node `node`.
int CmiNodeSize(int node);

/// Rank of the caller within its node, in [0, CmiNodeSize(CmiMyNode())).
int CmiMyRank();

// ---------------------------------------------------------------------------
// Timers (appendix §3.2)
// ---------------------------------------------------------------------------

/// Seconds since machine start (microsecond accuracy or better).
double CmiTimer();

/// Alias kept for fidelity with later Converse versions.
inline double CmiWallTimer() { return CmiTimer(); }

/// Per-thread CPU time in seconds.
double CmiCpuTimer();

// ---------------------------------------------------------------------------
// Point-to-point communication (appendix §3.3)
// ---------------------------------------------------------------------------

/// Opaque handle for an asynchronous communication operation.
struct CommHandle {
  void* rec = nullptr;
};

/// Send `msg` (a complete message: header + payload, `size` bytes total) to
/// `dest_pe`.  The buffer may be reused as soon as the call returns.
void CmiSyncSend(unsigned int dest_pe, unsigned int size, void* msg);

/// Like CmiSyncSend but transfers ownership of `msg` to the machine layer
/// (no copy on the in-process machine).  `msg` must come from CmiAlloc.
/// Extension over the paper's MMI, present in later Converse versions.
void CmiSyncSendAndFree(unsigned int dest_pe, unsigned int size, void* msg);

/// Timed send (extension): deliver `msg` to `dest_pe` no earlier than
/// `delay_us` microseconds of virtual time from now, on top of the
/// model's own latency.  Requires a sim-backed machine (MachineConfig::sim
/// or MachineConfig::model set); on a plain machine the delay is ignored and
/// delivery is immediate (callers that need real-time pacing on a plain
/// machine spin on CmiTimer instead).  Timed messages bypass
/// the aggregation layer and carry no FIFO ordering guarantee relative to
/// untimed sends.  Transfers ownership of `msg` like CmiSyncSendAndFree.
/// This is the timer primitive the service runtime (converse/svc.h) builds
/// virtual-time arrival generators and service-time clocks from.
void CmiSyncSendDelayedAndFree(unsigned int dest_pe, unsigned int size,
                               void* msg, double delay_us);

/// Initiate an asynchronous send; the buffer must stay valid until
/// CmiAsyncMsgSent(handle) returns nonzero.
CommHandle CmiAsyncSend(unsigned int dest_pe, unsigned int size, void* msg);

/// Status of an asynchronous operation: nonzero once complete.
int CmiAsyncMsgSent(CommHandle handle);

/// Release the handle and associated resources (not the message buffer).
void CmiReleaseCommHandle(CommHandle handle);

/// Gather-style send (appendix §3.3 CmiVectorSend): concatenates `len`
/// pieces (DataArray[i], sizes[i] bytes) into one message with handler
/// `handler_id` and sends it to `dest_pe`.
CommHandle CmiVectorSend(int dest_pe, int handler_id, int len,
                         const int sizes[], const void* const data_array[]);

// ---------------------------------------------------------------------------
// Immediate (out-of-band) messages — the paper's §6 "preemptive messages
// (interrupt messages)" future work, realized cooperatively: an immediate
// message is always delivered before any regular traffic at the next
// delivery point, is never delayed by a network latency model, and can be
// polled explicitly from long-running handlers via CmiProbeImmediates().
// ---------------------------------------------------------------------------

/// Send a message into the destination's immediate lane (copies `msg`).
void CmiSyncSendImmediate(unsigned int dest_pe, unsigned int size,
                          void* msg);
/// Ownership-transferring variant.
void CmiSyncSendImmediateAndFree(unsigned int dest_pe, unsigned int size,
                                 void* msg);
/// Deliver all pending immediate messages right now (callable from inside
/// a long-running handler or SPM compute loop).  Returns the number
/// delivered.
int CmiProbeImmediates();

// ---------------------------------------------------------------------------
// Receiving (paper §3.1.3)
// ---------------------------------------------------------------------------

/// Non-blockingly retrieve the next message delivered to this PE, or
/// nullptr.  The returned buffer is owned by the MMI: it is freed when the
/// caller-side dispatch completes unless CmiGrabBuffer is called.  Most
/// programs never call this directly — the scheduler does.
void* CmiGetMsg();

/// Deliver (invoke handlers for) up to `max_msgs` pending network messages
/// (-1 = all currently available).  Returns the number delivered.
int CmiDeliverMsgs(int max_msgs = -1);

/// Block until a message whose handler field equals `handler_id` arrives,
/// buffering any other messages for later delivery (paper: for SPM modules
/// that must not run other code while waiting).  The returned buffer is
/// MMI-owned until the next CmiGetMsg/CmiGetSpecificMsg call; call
/// CmiGrabBuffer to keep it.
void* CmiGetSpecificMsg(int handler_id);

/// Transfer ownership of the buffer `*pbuf` (the message currently being
/// delivered, or the last CmiGetSpecificMsg result) to the caller.  On this
/// machine no copy is needed; on machines with system buffers the MMI would
/// copy, so portable code must not assume pointer identity is preserved —
/// always use the possibly-updated `*pbuf`.
void CmiGrabBuffer(void** pbuf);

// ---------------------------------------------------------------------------
// Broadcasts (appendix §3.5)
// ---------------------------------------------------------------------------

void CmiSyncBroadcast(unsigned int size, void* msg);             // all but me
void CmiSyncBroadcastAll(unsigned int size, void* msg);          // everyone
void CmiSyncBroadcastAllAndFree(unsigned int size, void* msg);   // frees msg
CommHandle CmiAsyncBroadcast(unsigned int size, void* msg);
CommHandle CmiAsyncBroadcastAll(unsigned int size, void* msg);

// ---------------------------------------------------------------------------
// Console I/O (appendix §3.7) — atomic with respect to other PEs.
// ---------------------------------------------------------------------------

void CmiPrintf(const char* format, ...) __attribute__((format(printf, 1, 2)));
void CmiError(const char* format, ...) __attribute__((format(printf, 1, 2)));
int CmiScanf(const char* format, ...) __attribute__((format(scanf, 1, 2)));

/// Non-blocking scanf variant (paper §3.1.3): reads one input line and
/// sends it, as a NUL-terminated string payload, to `handler_id` on the
/// calling PE; the recipient re-parses with sscanf.
void CmiScanfAsync(int handler_id);

// ---------------------------------------------------------------------------
// Machine-internal statistics (extension; used by tests and benches)
// ---------------------------------------------------------------------------

struct CmiStats {
  std::uint64_t msgs_sent = 0;       // logical messages this PE sent
  std::uint64_t msgs_delivered = 0;  // network messages dispatched here
  std::uint64_t msgs_enqueued = 0;   // CsdEnqueue* calls on this PE
  std::uint64_t msgs_scheduled = 0;  // scheduler-queue dispatches here
  std::uint64_t idle_blocks = 0;     // times the scheduler blocked idle
  // Aggregation layer (converse/stream.h).  msgs_sent counts logical
  // messages whether or not they traveled inside a frame; these two count
  // the physical frames and the messages that rode in them.
  std::uint64_t agg_frames_sent = 0;   // aggregate frames pushed to the wire
  std::uint64_t agg_msgs_batched = 0;  // messages that traveled inside frames
  std::uint64_t bcast_forwards = 0;    // spanning-tree wrapper sends (root
                                       // children + interior re-forwards)
  // Zero-copy broadcast path (MachineConfig::bcast_share_min): payload
  // copies made by broadcast calls on this PE (a shared-payload broadcast
  // performs exactly one, at the root), shared blocks built here, and
  // shared views dispatched here.
  std::uint64_t bcast_payload_copies = 0;
  std::uint64_t bcast_shared_blocks = 0;
  std::uint64_t bcast_shared_views = 0;
  // Zero-copy scatter landing: CmiVectorSend payloads written straight
  // into a pre-registered scatter's user buffers, no message allocated.
  std::uint64_t scatter_direct = 0;
  // Service runtime (converse/svc.h): per-PE admission-control outcomes of
  // requests arriving at sessions owned by this PE.
  std::uint64_t svc_admitted = 0;   // requests accepted into a session queue
  std::uint64_t svc_shed = 0;       // requests refused (queue cap / deadline)
  std::uint64_t svc_completed = 0;  // admitted requests that sent a reply
  // Adaptive seed balancing (converse/cld.h kSteal / kPeriodic).  All three
  // stay zero under the four legacy strategies (no adaptive code runs).
  std::uint64_t ldb_steals = 0;     // successful steals landed on this PE
                                    // (thief side: non-empty reply arrived)
  std::uint64_t ldb_steal_msgs = 0; // steal protocol messages sent from here
                                    // (requests + replies + surplus pushes)
  std::uint64_t ldb_rebalance_moves = 0;  // seeds this PE pushed away during
                                          // a kPeriodic rebalance tick
  // Transport layer (multi-node machines; converse/machine.h CmiTransport).
  // The first two are per-PE (the sending PE is known when a record is
  // created); the rest are node-level totals folded into every local PE's
  // snapshot, mirroring how agg/bcast counters read machine-wide in tests.
  // All six stay exactly zero on a single-node in-process machine.
  std::uint64_t wire_frames_sent = 0;     // wire records this PE created
  std::uint64_t wire_bytes_sent = 0;      // record header + body bytes
  std::uint64_t wire_bytes_received = 0;  // node: body bytes parsed off wire
  std::uint64_t wire_syscalls = 0;        // node: writev/read data syscalls
  std::uint64_t wire_reconnects = 0;      // node: re-established peer links
  std::uint64_t wire_dropped = 0;  // node: logical msgs lost to injected
                                   // disconnects (loopback wire only)
};

/// Snapshot of the current PE's counters.
CmiStats CmiGetStats();

/// Message-allocator counters, summed over every PE's size-class pool.
/// All zero when pooling is disabled (sanitizer builds, CONVERSE_POOL=0).
struct CmiMemoryStats {
  /// Upper bound on size classes a pool build can have; the valid prefix of
  /// the per-class arrays below is `size_classes` entries.
  static constexpr int kMaxSizeClasses = 16;

  bool pool_enabled = false;
  std::uint64_t pool_hits = 0;    // allocations served from a freelist
  std::uint64_t pool_misses = 0;  // freelist empty: fresh block carved
  std::uint64_t direct_allocs = 0;   // oversize or outside a PE thread
  std::uint64_t local_frees = 0;     // freed on the owning PE's thread
  std::uint64_t remote_frees = 0;    // pushed to the owner's return stack
  std::uint64_t remote_reclaimed = 0;  // pulled back from the return stack
  // First-touch arena placement: pool misses carve blocks out of per-PE
  // arena chunks (touched by the owning thread, so pages land on its NUMA
  // node) instead of hitting the global allocator per block.
  std::uint64_t arena_chunks = 0;  // arena chunks allocated across all PEs
  std::uint64_t arena_bytes = 0;   // total bytes in those chunks
  // Oversize (> largest size class) messages keep a small per-PE cache of
  // recently freed buffers so large-message traffic stops round-tripping
  // through the global allocator.
  std::uint64_t oversize_cached = 0;  // oversize frees parked in the cache
  std::uint64_t oversize_reused = 0;  // oversize allocs served from it
  // Per-size-class breakdown (valid prefix: `size_classes` entries).
  int size_classes = 0;
  std::uint64_t class_bytes[kMaxSizeClasses] = {};   // block size per class
  std::uint64_t class_hits[kMaxSizeClasses] = {};    // freelist hits
  std::uint64_t class_misses[kMaxSizeClasses] = {};  // arena carves
};

/// Process-wide snapshot of the message-pool counters.  Unlike
/// CmiGetStats this may be called outside a machine.
CmiMemoryStats CmiGetMemoryStats();

// ---------------------------------------------------------------------------
// Exit helpers
// ---------------------------------------------------------------------------

/// Broadcast a system message that calls CsdExitScheduler() on every PE
/// (including the caller).  The standard way to end a run in which every PE
/// sits in CsdScheduler(-1).
void ConverseBroadcastExit();

}  // namespace converse

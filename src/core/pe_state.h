// Internal per-PE and per-machine state of the in-process Converse machine.
// Not installed; runtime modules inside libconverse include it relative to
// the src/ root.  A PeState field is owned by exactly one PE thread
// (consumer-side fields), guarded by PeState::mu (lane registration, the
// overflow deques, the sim's timed queue), or lock-free cross-thread: the
// data and immediate lanes' rings and the `parked` wakeup flag.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "converse/cmi.h"
#include "converse/emi.h"
#include "converse/handlers.h"
#include "converse/machine.h"
#include "converse/queueing.h"
#include "converse/sim.h"
#include "converse/util/rng.h"
#include "converse/util/spantree.h"
#include "core/mpsc_ring.h"
#include "core/stream.h"

namespace converse::detail {

class Machine;
class MsgPool;
class SimCoordinator;
class Transport;  // core/transport/transport.h (multi-node wire backends)

namespace race {
class RaceDetector;   // src/race/race.cpp (CciRace, sim-only)
struct RacePeState;
}  // namespace race

/// A message sitting in a sim-backed PE's timed in-queue.
struct NetEntry {
  void* msg;
  double arrive_us;   // virtual visibility time
  std::uint64_t seq;  // tie-break so equal arrival times stay FIFO
};

/// Overflow side of a delivery lane: an unbounded deque guarded by
/// PeState::mu, taken only when the lane's ring is full.
///
/// Ordering contract (per-sender FIFO; order across senders is never
/// promised):
///  * While `overflow_count` is nonzero, producers divert to the overflow
///    deque ("sticky" overflow) so a sender's later message can never pass
///    its earlier overflowed one via the ring.  Producers re-check the
///    count under the mutex before committing to the deque: the consumer
///    only zeroes the count under that same mutex, so a stale nonzero read
///    on the lock-free fast path is corrected before it can reorder.
///  * The consumer splices only after finding the ring empty, and under
///    the mutex it first moves whatever reached the ring since then into
///    its private batch queue, then the overflow deque; it drains the
///    batch queue before returning to any ring.
struct LaneOverflow {
  std::atomic<std::uint64_t> overflow_count{0};  // writes under PeState::mu
  std::deque<void*> overflow;                    // guarded by PeState::mu
};

/// One regular (data) lane: the bounded SPSC ring of one producer ->
/// consumer pair plus its sticky overflow.  A PE's producers are the
/// node's other local PEs and, on multi-node machines, the transport comm
/// thread; a PE's sends to itself skip the lanes (PeState::selfq).  A
/// lane is allocated on the producer's first send, registered with the
/// consumer under PeState::mu and cached on the producer's side
/// (PeState::out_lanes, or Machine::wire_lane for the comm thread), so
/// memory and the consumer's poll cost grow with the pairs that actually
/// talk.
struct DataLane {
  SpscRing ring;
  LaneOverflow ovf;
};

/// The immediate (out-of-band) lane: one MPSC ring shared by every
/// producer, plus the same sticky overflow.  Rarely used, so one probe per
/// poll beats a per-producer table.
struct InLane {
  MpscRing ring;
  LaneOverflow ovf;
};

struct NetEntryLater {
  bool operator()(const NetEntry& a, const NetEntry& b) const {
    if (a.arrive_us != b.arrive_us) return a.arrive_us > b.arrive_us;
    return a.seq > b.seq;
  }
};

/// Dispatch-time bookkeeping for the buffer ownership protocol: the message
/// currently being delivered and whether its handler grabbed it.
struct SysBuf {
  void* msg;
  bool grabbed;
};

/// Trace/instrumentation hooks.  All optional; the core tests `hooks` once
/// per event, so a machine without tracing pays one predictable branch.
struct CoreHooks {
  void* ud = nullptr;
  void (*on_send)(void* ud, const MsgHeader* h, int dest_pe) = nullptr;
  void (*on_dispatch_begin)(void* ud, const MsgHeader* h,
                            bool from_queue) = nullptr;
  void (*on_dispatch_end)(void* ud, std::uint32_t handler,
                          double begin_us) = nullptr;
  void (*on_enqueue)(void* ud, const MsgHeader* h) = nullptr;
  void (*on_idle_begin)(void* ud) = nullptr;
  void (*on_idle_end)(void* ud) = nullptr;
  // Aggregation layer (src/core/stream.cpp): a frame of `msgs` packed
  // messages (`bytes` of entries) went to the wire / a spanning-tree
  // broadcast carrier was forwarded to a tree child.
  void (*on_agg_flush)(void* ud, int dest_pe, std::uint32_t msgs,
                       std::uint32_t bytes) = nullptr;
  void (*on_bcast_forward)(void* ud, int dest_pe,
                           std::uint32_t size) = nullptr;
};

/// One-shot/persistent scatter registration (EMI advance receive).
struct ScatterReg {
  int id;
  std::size_t match_offset;
  std::uint32_t match_value;
  std::vector<ScatterPart> parts;
  int notify_handler;
  bool persistent;
};

/// Thrown inside blocked runtime calls when another PE aborted the machine
/// (entry function threw); swallowed by the PE thread wrapper.
struct MachineAborted {};

struct PeState {
  // ---- identity: set at machine construction, read-only afterwards ----
  Machine* machine = nullptr;
  int mype = 0;
  int npes = 1;
  int node = 0;  // node owning this PE (== Machine::NodeOf(mype))
  MsgPool* pool = nullptr;  // this slot's message pool (null when disabled)

  // ---- cross-thread: data-lane table and the wakeup flag ----
  // Senders read `parked` on every push and write the lane table only when
  // they register a lane (under mu); this PE reads the table on every poll
  // and writes `parked` only when it parks or unparks.  The table is null
  // on sim-backed machines (which is every machine with a NetModel): they
  // deliver regular traffic through timedq and never touch a data lane.
  //
  // Registered lanes in registration order; [0, nlanes) are valid and
  // owned here.  Sized to the producer-slot count once, never resized.
  alignas(64) std::unique_ptr<std::unique_ptr<DataLane>[]> lanes;
  std::atomic<int> nlanes{0};  // seq_cst: read by WaitForNet's last probe
  // True while this PE's thread is (about to be) blocked in WaitForNet.
  // Producers check it after publishing and only then pay for the
  // lock+notify; the seq_cst Dekker pairing with the rings' publish (the
  // data ring's cell store, the immediate ring's tail CAS; see
  // mpsc_ring.h) guarantees no lost wakeup.
  std::atomic<bool> parked{false};

  // ---- producer-locked: the mutex, and what it guards ----
  alignas(64) std::mutex mu;  // guards lane registration, overflow deques,
                              // timedq (sim only), and the parked condvar
  std::condition_variable cv;
  InLane immlane;  // immediate (out-of-band) messages: always delivered
                   // before regular traffic and never delayed by a net model
  std::priority_queue<NetEntry, std::vector<NetEntry>, NetEntryLater>
      timedq;  // sim only: regular traffic, ordered by virtual arrival
  std::uint64_t net_seq = 0;

  // ---- consumer-only state (touched only by this PE's thread) ----
  // Written on every delivered message, so it starts a line of its own.
  // The slot being served (an index into lanes, or nlanes for selfq) and
  // how many messages this visit has taken from it; PopRegular moves on
  // round robin when the slot runs dry or the count reaches
  // lane_burst_max, one ring's capacity.
  alignas(64) int lane_cursor = 0;
  std::uint32_t lane_burst = 0;
  std::uint32_t lane_burst_max = 1;
  std::deque<void*> batchq;      // regular messages staged in batch
  std::deque<void*> selfq;       // this PE's sends to itself, in order
  std::deque<void*> imm_batchq;  // immediate messages staged in batch
  std::deque<void*> heldq;       // buffered by CmiGetSpecificMsg
  // This PE's own lanes into each other local PE (by local index), filled
  // on the first send to it; null entries until then (the own index stays
  // null).  Null on timed machines.
  std::unique_ptr<DataLane*[]> out_lanes;
  CqsQueue schedq;
  std::vector<Handler> handlers;
  // Handler count published for CciCheck's cross-PE divergence diagnosis:
  // written (release) by the owning PE on registration, read (acquire) by
  // other PEs only inside a checker violation path.  Stays 0 when the
  // checker is disabled.
  std::atomic<std::uint32_t> published_handlers{0};
  std::vector<SysBuf> sysbuf_stack;
  void* pending_mmi = nullptr;  // last buffer returned by CmiGetMsg/Specific
  bool pending_mmi_grabbed = false;
  bool exit_requested = false;
  int sched_depth = 0;  // nesting level of running scheduler loops
  std::vector<void*> module_state;
  // Scatter registrations (EMI advance receive).  Guarded by scatter_mu:
  // the zero-copy landing path (TryScatterDirect) matches and fills a
  // registration from the *sending* PE's thread.  scatter_armed mirrors
  // scatters.size() so the per-message fast path is one relaxed load.
  // scatter_mu is a leaf lock: never acquire another lock while holding it.
  std::mutex scatter_mu;
  std::vector<ScatterReg> scatters;
  std::atomic<int> scatter_armed{0};
  int next_scatter_id = 0;
  // Idle hooks, run by blocking scheduler loops (CsdScheduler) right before
  // the PE parks in WaitForNet.  A hook returns true when it did something
  // that could produce new work (sent a message, enqueued locally) so the
  // loop re-polls instead of blocking immediately.  Consumer-only state;
  // runtime modules (the kSteal seed balancer, kCentral's drain flush)
  // register at most one hook each per machine run.
  struct IdleHook {
    bool (*fn)(void* ud);
    void* ud;
  };
  std::vector<IdleHook> idle_hooks;
  util::Xoshiro256 rng{0};
  CmiStats stats;
  std::uint64_t send_seq = 0;
  const CoreHooks* hooks = nullptr;
  CstPeState agg;  // small-message aggregation state (core/stream.h)

  // CciRace per-PE state; non-null only under a sim-backed machine with
  // the detector compiled in.  Every race hook is gated on this pointer.
  race::RacePeState* race = nullptr;

  // Quiescence-relevant counters (read by the charm runtime).
  std::uint64_t qd_created = 0;    // messages sent or enqueued
  std::uint64_t qd_processed = 0;  // messages dispatched

  PeState() = default;
  PeState(const PeState&) = delete;
  PeState& operator=(const PeState&) = delete;
};

// Senders must never share a cache line with the consumer's per-message
// writes: the lane cursor and burst count on the `parked` line would cost
// about a quarter of the 3 -> 1 fan-in rate.  offsetof on PeState is
// conditionally supported (it is not standard-layout); GCC and Clang give
// real offsets.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
constexpr std::size_t kLaneLine = 64;
constexpr std::size_t LineOf(std::size_t offset) { return offset / kLaneLine; }
static_assert(offsetof(PeState, lanes) % kLaneLine == 0);
static_assert(LineOf(offsetof(PeState, nlanes)) ==
              LineOf(offsetof(PeState, lanes)));
static_assert(LineOf(offsetof(PeState, parked)) ==
              LineOf(offsetof(PeState, lanes)));
static_assert(offsetof(PeState, mu) % kLaneLine == 0 &&
              LineOf(offsetof(PeState, mu)) >
                  LineOf(offsetof(PeState, parked)));
static_assert(offsetof(PeState, lane_cursor) % kLaneLine == 0 &&
              LineOf(offsetof(PeState, lane_cursor)) >
                  LineOf(offsetof(PeState, net_seq)));
static_assert(LineOf(offsetof(PeState, lane_burst)) ==
                  LineOf(offsetof(PeState, lane_cursor)) &&
              LineOf(offsetof(PeState, lane_burst_max)) ==
                  LineOf(offsetof(PeState, lane_cursor)));
#pragma GCC diagnostic pop

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Spawn PE threads, run `entry` everywhere, join, tear down.
  void Run(const std::function<void(int pe, int npes)>& entry);

  /// State of (locally hosted) PE `i`.  `i` is a *global* PE number; in
  /// real multi-process mode only [pe_begin_, pe_end_) are hosted here and
  /// anything else is a bug (gate with IsLocalPe first).
  PeState& Pe(int i) { return *pes_[i - pe_begin_]; }
  int npes() const { return config_.npes; }

  // ---- node topology (block distribution of npes over nnodes) ----
  int nnodes() const { return config_.nnodes; }
  /// Node this process hosts; -1 = loopback (this process hosts them all).
  int mynode() const { return config_.mynode; }
  bool multi_node() const { return config_.nnodes > 1; }
  int NodeOf(int pe) const {
    const int base = config_.npes / config_.nnodes;
    const int rem = config_.npes % config_.nnodes;
    const int cut = rem * (base + 1);
    return pe < cut ? pe / (base + 1) : rem + (pe - cut) / base;
  }
  int NodeFirst(int node) const {
    const int base = config_.npes / config_.nnodes;
    const int rem = config_.npes % config_.nnodes;
    return node * base + (node < rem ? node : rem);
  }
  int NodeSize(int node) const {
    const int base = config_.npes / config_.nnodes;
    return base + (node < config_.npes % config_.nnodes ? 1 : 0);
  }
  /// True when PE `i`'s state lives in this process.
  bool IsLocalPe(int i) const { return i >= pe_begin_ && i < pe_end_; }
  int pe_begin() const { return pe_begin_; }
  int pe_end() const { return pe_end_; }
  int local_npes() const { return pe_end_ - pe_begin_; }

  /// The wire backend (nullptr on single-node machines).
  Transport* transport() const { return transport_.get(); }
  /// The comm thread's data lane into local PE `local` (by local index),
  /// null until its first delivery there.  Touched only by the comm thread.
  DataLane*& wire_lane(int local) {
    return wire_lanes_[static_cast<std::size_t>(local)];
  }

  const MachineConfig& config() const { return config_; }
  bool has_model() const { return config_.model != nullptr; }
  const NetModel& model() const { return model_; }
  const util::SpanningTree& tree() const { return tree_; }
  std::FILE* out() const { return out_; }
  std::FILE* err() const { return err_; }
  std::FILE* in() const { return in_; }

  /// The deterministic-simulation coordinator (nullptr in normal mode).
  /// Non-null whenever the config set `sim` or `model`.
  SimCoordinator* sim() const { return sim_.get(); }
  /// The machine's copy of the sim config (meaningful only when sim()).
  const SimConfig& sim_config() const { return sim_config_; }
  /// The CciRace detector (nullptr unless sim-backed and compiled in).
  race::RaceDetector* race_detector() const { return race_detector_; }
  /// Internal: the CciRace wiring in race.cpp owns this slot.
  race::RaceDetector*& race_detector_slot() { return race_detector_; }

  /// Microseconds since machine start.
  double ElapsedUs() const;

  void Abort(std::exception_ptr e);
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// The currently running machine (nullptr outside Run).
  static Machine* Current();

 private:
  void DrainQueues(PeState& pe);

  MachineConfig config_;
  NetModel model_;  // copy of *config.model (valid even if caller's dies)
  SimConfig sim_config_;  // copy of *config.sim (same lifetime rule), or
                          // the default a model-only config runs on
  std::unique_ptr<SimCoordinator> sim_;
  race::RaceDetector* race_detector_ = nullptr;  // owned; see race.cpp
  util::SpanningTree tree_;
  std::unique_ptr<Transport> transport_;  // null on single-node machines
  std::vector<DataLane*> wire_lanes_;     // see wire_lane()
  int pe_begin_ = 0;  // global PE range hosted by this process:
  int pe_end_ = 0;    // [pe_begin_, pe_end_); == [0, npes) except real mode
  std::vector<std::unique_ptr<PeState>> pes_;  // pes_[i - pe_begin_]
  std::int64_t start_ns_ = 0;
  std::FILE* out_;
  std::FILE* err_;
  std::FILE* in_;
  std::atomic<bool> aborted_{false};
  std::mutex abort_mu_;
  std::exception_ptr first_error_;
};

/// Current PE (thread-local); nullptr outside a PE thread.
PeState* Cpv();
/// Current PE, asserting we are inside a machine.
PeState& CpvChecked();

/// Internal send: takes ownership of `msg` (header fields completed here).
void SendOwned(int dest_pe, void* msg);

/// SendOwned for callers that already resolved the sending PE (saves the
/// thread-local lookup on hot paths).  A nonzero `delay_us` defers delivery
/// by that much virtual time (CmiSyncSendDelayedAndFree); it requires a
/// sim-backed machine.
void SendOwnedFrom(PeState& pe, int dest_pe, void* msg, double delay_us = 0.0);

/// SendOwnedFrom that never consults the wire backend: used by the
/// transport layer itself when expanding a node-cast into per-PE local
/// deliveries (the record already crossed — and was accounted on — the
/// wire; re-entering the wire branch would double-count or double-drop).
/// SendOwnedFrom cannot tell this case apart by itself: in loopback mode
/// (mynode == -1) a node-cast's local fan-out can start from a PE on
/// another virtual node, so "destination is off my node" holds for both.
void SendOwnedFromLocal(PeState& pe, int dest_pe, void* msg,
                        double delay_us = 0.0);

/// Inject a message that arrived over a real socket into local PE
/// `dest_pe`'s delivery lane (immediate lane when `immediate`).  Called
/// from the transport comm thread — not a PE thread — so it takes no
/// logical counters; the sender's node accounted the message when it was
/// sent.  `msg` ownership transfers to the machine.
void DeliverFromWire(Machine& m, int dest_pe, void* msg, bool immediate);

/// Internal immediate send: like SendOwned but into the receiver's
/// out-of-band lane (paper §6 "preemptive messages" future work).
void SendOwnedImmediate(int dest_pe, void* msg);

/// Pop the next deliverable network message, applying scatter
/// registrations; nullptr if none available right now.
void* PopNet(PeState& pe);

/// Test one scatter registration against a delivered message; true when
/// the message was consumed.  Never matches carrier (frame/broadcast)
/// messages — scatters apply to the logical messages inside.
bool TryScatter(PeState& pe, void* msg);

/// Zero-copy scatter landing for CmiVectorSend (called on the *sender*):
/// if `dest_pe` has a matching registration, copy the gathered segments
/// straight into its user buffers — no intermediate message — and true is
/// returned.  Inactive under the sim backend (it keeps per-message
/// fault/latency semantics).
bool TryScatterDirect(PeState& src, int dest_pe, int len, const int sizes[],
                      const void* const data_array[],
                      std::size_t payload_size);

/// Push a shared-broadcast block to `dest_pe`'s delivery lane (or the sim)
/// without restamping its header or touching the logical send counters —
/// the caller already accounted for the fan-out and holds a reference per
/// push.  Flushes the sender's open frame to `dest_pe` first (FIFO).
void SendSharedBlockFrom(PeState& pe, int dest_pe, void* block);

/// True when no network message is deliverable right now (both lanes, or
/// under the sim the immediate lane and the timed queue).  Must run on
/// `pe`'s own thread.
bool NetIsIdle(PeState& pe);

/// Deliver buffered-held + available network messages, up to `budget`
/// (-1 = unlimited); stops early if the PE's exit flag is raised.
int DeliverAvailable(PeState& pe, int budget);

/// Block until a network message is (or becomes) deliverable.  Throws
/// MachineAborted if the machine is aborting.
void WaitForNet(PeState& pe);

/// Core module id (registers the exit-broadcast handler); calling it
/// ensures the core module is registered.
int CoreModuleId();

/// Copy a live message into a fresh machine-owned buffer of the same size
/// (the sim fault injector's duplicate path).
void* CloneMessage(const void* msg);

/// Instrumented scheduling point: under the sim backend, offer the
/// coordinator a chance to hand execution to another PE.  No-op (one
/// thread-local load and a branch) in normal mode or outside a machine.
void SimYieldHere();

/// Fold a module-defined decision into the sim's event-trace hash (no-op
/// on machines without the sim backend).  Defined in sim/sim.cpp.
void SimTraceUser(PeState& pe, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c);

}  // namespace converse::detail

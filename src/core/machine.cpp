#include "converse/machine.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "converse/check.h"
#include "converse/csd.h"
#include "converse/detail/module.h"
#include "converse/util/timer.h"
#include "core/env.h"
#include "core/msg_pool.h"
#include "core/pe_state.h"
#include "core/transport/transport.h"
#include "race/race_internal.h"
#include "sim/sim_internal.h"

namespace converse {
namespace detail {
namespace {

thread_local PeState* tls_pe = nullptr;
Machine* g_current_machine = nullptr;

/// Per-PE state of the core module itself: the exit-broadcast handler and
/// the relay that re-creates receive-side scatter-notification semantics
/// for sender-side (zero-copy) landings.
struct CoreModuleState {
  int exit_handler = -1;
  int scatter_note_handler = -1;
};

CoreModuleState& CoreState() {
  return *static_cast<CoreModuleState*>(ModuleState(CoreModuleId()));
}

/// Copy `size` bytes of `msg` into a fresh machine-owned buffer.
void* CopyMessage(const void* msg, std::size_t size) {
  assert(size >= sizeof(MsgHeader));
  void* copy = CmiAlloc(size);
  std::memcpy(copy, msg, size);
  Header(copy)->total_size = static_cast<std::uint32_t>(size);
  Header(copy)->magic = kMsgMagicAlive;
  MsgPoolRestampFlag(copy);  // memcpy brought the source's pooled bit along
  check::OnCopyReset(copy);
  return copy;
}

}  // namespace

/// Test one scatter registration against a delivered message; returns true
/// if the message was consumed.
bool TryScatter(PeState& pe, void* msg) {
  // One relaxed load on the per-message fast path; registrations are rare.
  if (pe.scatter_armed.load(std::memory_order_relaxed) == 0) return false;
  // Carriers are machine-internal envelopes; scatters match the logical
  // messages unpacked from them, never the envelope's own payload.
  if ((Header(msg)->flags & kMsgFlagCarrierMask) != 0) return false;
  const std::size_t payload_size = CmiMsgPayloadSize(msg);
  const char* payload = static_cast<const char*>(CmiMsgPayload(msg));
  int notify = -1;
  std::uint32_t value = 0;
  bool matched = false;
  {
    // The registration table is shared with the sender-side zero-copy
    // landing path (TryScatterDirect); scatter_mu is a leaf lock.
    std::scoped_lock lk(pe.scatter_mu);
    for (std::size_t i = 0; i < pe.scatters.size(); ++i) {
      ScatterReg& reg = pe.scatters[i];
      if (reg.match_offset + sizeof(std::uint32_t) > payload_size) continue;
      std::uint32_t word;
      std::memcpy(&word, payload + reg.match_offset, sizeof(word));
      if (word != reg.match_value) continue;
      for (const ScatterPart& part : reg.parts) {
        assert(part.payload_offset + part.length <= payload_size &&
               "scatter part exceeds message payload");
        std::memcpy(part.destination, payload + part.payload_offset,
                    part.length);
      }
      notify = reg.notify_handler;
      value = reg.match_value;
      matched = true;
      if (!reg.persistent) {
        pe.scatters.erase(pe.scatters.begin() + static_cast<long>(i));
        pe.scatter_armed.store(static_cast<int>(pe.scatters.size()),
                               std::memory_order_release);
      }
      break;
    }
  }
  if (!matched) return false;
  check::OnReclaim(msg);  // machine layer consumes the in-flight buffer
  CmiFree(msg);
  if (notify >= 0) {
    // "queues a short empty message in addition ... to notify the
    // recipient that the data has arrived" (paper, EMI).
    void* note = CmiMakeMessage(notify, &value, sizeof(value));
    pe.schedq.Enqueue(note);
    ++pe.stats.msgs_enqueued;
  }
  return true;
}

namespace {

/// Copy `n` bytes at logical offset `off` of the concatenated gather
/// segments into `out`.  The caller guarantees off + n <= total size.
void GatherRead(int len, const int sizes[], const void* const data_array[],
                std::size_t off, std::size_t n, void* out) {
  char* dst = static_cast<char*>(out);
  for (int i = 0; i < len && n > 0; ++i) {
    const std::size_t seg = static_cast<std::size_t>(sizes[i]);
    if (off >= seg) {
      off -= seg;
      continue;
    }
    const std::size_t take = seg - off < n ? seg - off : n;
    std::memcpy(dst, static_cast<const char*>(data_array[i]) + off, take);
    dst += take;
    n -= take;
    off = 0;
  }
  assert(n == 0 && "gather read past the end of the segments");
}

}  // namespace

bool TryScatterDirect(PeState& src, int dest_pe, int len, const int sizes[],
                      const void* const data_array[],
                      std::size_t payload_size) {
  Machine& m = *src.machine;
  // The sim backend keeps per-message semantics (fault draws, NetModel
  // arrival pricing, conservation oracles); a zero-copy landing would make
  // the matched message invisible to them, so sim-backed machines use the
  // receive-side TryScatter path unchanged.
  if (m.sim() != nullptr) return false;
  // Cross-node destinations have no shared address space (and the loopback
  // wire emulates that): vector sends to them take the gather-copy path.
  if (m.multi_node() && m.NodeOf(dest_pe) != src.node) return false;
  PeState& dst = m.Pe(dest_pe);
  if (dst.scatter_armed.load(std::memory_order_acquire) == 0) return false;
  int notify = -1;
  std::uint32_t value = 0;
  bool matched = false;
  {
    std::scoped_lock lk(dst.scatter_mu);
    for (std::size_t i = 0; i < dst.scatters.size(); ++i) {
      ScatterReg& reg = dst.scatters[i];
      if (reg.match_offset + sizeof(std::uint32_t) > payload_size) continue;
      std::uint32_t word;
      GatherRead(len, sizes, data_array, reg.match_offset, sizeof(word),
                 &word);
      if (word != reg.match_value) continue;
      for (const ScatterPart& part : reg.parts) {
        assert(part.payload_offset + part.length <= payload_size &&
               "scatter part exceeds message payload");
        GatherRead(len, sizes, data_array, part.payload_offset, part.length,
                   part.destination);
      }
      notify = reg.notify_handler;
      value = reg.match_value;
      matched = true;
      if (!reg.persistent) {
        dst.scatters.erase(dst.scatters.begin() + static_cast<long>(i));
        dst.scatter_armed.store(static_cast<int>(dst.scatters.size()),
                                std::memory_order_release);
      }
      break;
    }
  }
  if (!matched) return false;
  ++src.stats.scatter_direct;
  if (notify >= 0) {
    // Recreate receive-side notification semantics exactly: a control
    // message to the destination whose machine-internal handler enqueues
    // the short notify message into the scheduler queue there (the notify
    // handler owns its buffer on both paths).  It flushes the sender's
    // open frame and rides the ordinary FIFO lane, so it arrives after any
    // earlier traffic and publishes the user-buffer writes.
    const std::uint32_t words[2] = {static_cast<std::uint32_t>(notify),
                                    value};
    void* ctl =
        CmiMakeMessage(CoreState().scatter_note_handler, words,
                       sizeof(words));
    SendOwnedFrom(src, dest_pe, ctl);
  }
  return true;
}

namespace {

void FlushPendingMmi(PeState& pe) {
  void* stale = pe.pending_mmi;
  const bool grabbed = pe.pending_mmi_grabbed;
  pe.pending_mmi = nullptr;
  pe.pending_mmi_grabbed = false;
  if (stale != nullptr && !grabbed) {
    check::OnReclaim(stale);  // MMI reclaims its ungrabbed buffer
    CmiFree(stale);
  }
}

// ---- lock-free delivery lanes -------------------------------------------
//
// The common send path is LanePush's first branch: one seq_cst cell store
// on the sender's own SPSC ring, no mutex and no index shared with the
// consumer or with other senders.  The overflow deque (and the sticky
// overflow_count protocol documented in pe_state.h) exists so the bounded
// ring is a throughput knob rather than a correctness limit.

/// Producer side: deposit `msg` into `lane` (a DataLane or the InLane)
/// of `dst`, preserving per-sender FIFO order across the ring/overflow
/// boundary.
template <typename Lane>
void LanePush(PeState& dst, Lane& lane, void* msg) {
  LaneOverflow& ovf = lane.ovf;
  if (ovf.overflow_count.load(std::memory_order_acquire) == 0 &&
      lane.ring.TryPush(msg)) {
    return;
  }
  std::scoped_lock lk(dst.mu);
  // Re-check under the lock: the consumer zeroes overflow_count only while
  // holding dst.mu, so a stale nonzero fast-path read is corrected here and
  // the message rejoins the ring — none of our earlier messages can still
  // be sitting in the (now empty) overflow deque.
  if (ovf.overflow_count.load(std::memory_order_relaxed) == 0 &&
      lane.ring.TryPush(msg)) {
    return;
  }
  ovf.overflow.push_back(msg);
  ovf.overflow_count.fetch_add(1, std::memory_order_seq_cst);
}

/// Producer side: the data lane into `dst` behind the producer's own cache
/// entry `cached`.  On the pair's first send the lane is created and
/// registered with the consumer.
DataLane& LaneFor(PeState& dst, DataLane*& cached) {
  if (cached != nullptr) return *cached;
  assert(dst.lanes != nullptr && "timed machines have no data lanes");
  auto fresh = std::make_unique<DataLane>();
  fresh->ring.Init(static_cast<std::size_t>(
      std::max(1, dst.machine->config().ring_capacity)));
  cached = fresh.get();
  std::scoped_lock lk(dst.mu);
  const int n = dst.nlanes.load(std::memory_order_relaxed);
  dst.lanes[static_cast<std::size_t>(n)] = std::move(fresh);
  dst.nlanes.store(n + 1, std::memory_order_seq_cst);
  return *cached;
}

/// Producer side: wake `dst` if its thread is parked in WaitForNet.  Must
/// run after the message is published (data-ring cell store, immediate-
/// ring tail CAS or overflow count bump — all seq_cst, pairing with the
/// consumer's parked store).
void NotifyIfParked(PeState& dst) {
  if (dst.parked.load(std::memory_order_seq_cst)) {
    std::scoped_lock lk(dst.mu);
    dst.cv.notify_one();
  }
}

/// Deliver a regular message from PE `src`'s own thread to `dst`.  A
/// self-send needs no lane (and no wakeup): it joins `src`'s private
/// selfq, which PopRegular serves in the same rotation as the lanes.
void PushRegularFrom(PeState& src, PeState& dst, void* msg) {
  if (&src == &dst) {
    assert(tls_pe == &src && "a self-send runs on the PE's own thread");
    src.selfq.push_back(msg);
    return;
  }
  const int local = dst.mype - src.machine->pe_begin();
  LanePush(dst, LaneFor(dst, src.out_lanes[static_cast<std::size_t>(local)]),
           msg);
  NotifyIfParked(dst);
}

void* PopBatch(std::deque<void*>& batchq) {
  void* msg = batchq.front();
  batchq.pop_front();
  return msg;
}

/// Consumer side: next message from `lane`'s ring, then (in batch, one
/// lock) from its overflow deque into `batchq`.  nullptr when both are
/// empty.  The caller drains `batchq` before calling again.
template <typename Lane>
void* LanePopOne(PeState& pe, Lane& lane, std::deque<void*>& batchq) {
  if (void* msg = lane.ring.TryPop()) return msg;
  LaneOverflow& ovf = lane.ovf;
  if (ovf.overflow_count.load(std::memory_order_seq_cst) == 0) {
    return nullptr;
  }
  {
    std::scoped_lock lk(pe.mu);
    // A sender may have refilled the ring after the TryPop above and then
    // spilled.  For every sender, what it has on the ring now precedes
    // what it has in the overflow deque (it spills only when it cannot
    // use the ring, and keeps spilling while the count is nonzero), so
    // the ring goes first.
    while (void* msg = lane.ring.TryPop()) batchq.push_back(msg);
    batchq.insert(batchq.end(), ovf.overflow.begin(), ovf.overflow.end());
    ovf.overflow.clear();
    ovf.overflow_count.store(0, std::memory_order_seq_cst);
  }
  return batchq.empty() ? nullptr : PopBatch(batchq);
}

/// Consumer side: next immediate message, draining imm_batchq first.
void* PopImmediate(PeState& pe) {
  if (!pe.imm_batchq.empty()) return PopBatch(pe.imm_batchq);
  return LanePopOne(pe, pe.immlane, pe.imm_batchq);
}

/// Consumer side: next regular message, draining batchq first, then the
/// data lanes and selfq (the last slot of the rotation) in bursts: the
/// slot at lane_cursor keeps the turn while it yields, for at most one
/// ring's worth per visit (lane_burst), and the cursor then moves round
/// robin; a slot whose burst ran out gets the turn back when every other
/// slot is empty.  Serving one sender's backlog contiguously lets a
/// credit-windowed sender's ack go out while the other lanes are served,
/// rather than every window completing at the end of the same cycle and
/// all senders waiting together.
void* PopRegular(PeState& pe) {
  if (!pe.batchq.empty()) return PopBatch(pe.batchq);
  const int n = pe.nlanes.load(std::memory_order_acquire);
  int i = pe.lane_cursor;
  // Only the first slot visited can have a spent burst (every move resets
  // it); that slot is skipped now and revisited after the others.
  bool revisit = false;
  for (int k = 0; k < n + 1 + (revisit ? 1 : 0); ++k) {
    if (pe.lane_burst < pe.lane_burst_max) {
      void* msg = nullptr;
      if (i < n) {
        msg = LanePopOne(pe, *pe.lanes[static_cast<std::size_t>(i)],
                         pe.batchq);
      } else if (!pe.selfq.empty()) {
        msg = PopBatch(pe.selfq);
      }
      if (msg != nullptr) {
        ++pe.lane_burst;
        pe.lane_cursor = i;
        return msg;
      }
    } else {
      revisit = true;
    }
    pe.lane_burst = 0;
    i = i < n ? i + 1 : 0;
  }
  pe.lane_cursor = i;
  return nullptr;
}

template <typename Lane>
bool LaneHasItems(const Lane& lane) {
  return lane.ring.HasItems() ||
         lane.ovf.overflow_count.load(std::memory_order_seq_cst) != 0;
}

/// Consumer side: an immediate message is (or imminently is) available.
/// The staged batch queues are consumer-private, so this is safe lock-free
/// from the owning PE's thread.
bool HasImmediate(const PeState& pe) {
  return !pe.imm_batchq.empty() || LaneHasItems(pe.immlane);
}

/// Consumer side, lane (untimed) machines: a regular message is available.
bool HasRegular(const PeState& pe) {
  if (!pe.batchq.empty() || !pe.selfq.empty()) return true;
  const int n = pe.nlanes.load(std::memory_order_seq_cst);
  for (int i = 0; i < n; ++i) {
    if (LaneHasItems(*pe.lanes[static_cast<std::size_t>(i)])) return true;
  }
  return false;
}

/// Consumer side, sim backend: refill batchq with every timed entry that
/// has arrived by virtual now (one lock per batch) and return the first.
void* PopTimed(PeState& pe, Machine& m) {
  if (!pe.batchq.empty()) return PopBatch(pe.batchq);
  constexpr int kTimedBatch = 64;
  std::scoped_lock lk(pe.mu);
  const double now = m.ElapsedUs();
  int n = 0;
  while (!pe.timedq.empty() && pe.timedq.top().arrive_us <= now &&
         n < kTimedBatch) {
    pe.batchq.push_back(pe.timedq.top().msg);
    pe.timedq.pop();
    ++n;
  }
  return pe.batchq.empty() ? nullptr : PopBatch(pe.batchq);
}

}  // namespace

PeState* Cpv() { return tls_pe; }

PeState& CpvChecked() {
  if (CciCheckEnabled()) check::CheckInsidePe("a Converse runtime function");
  assert(tls_pe != nullptr &&
         "Converse call made outside a PE thread of a running machine");
  return *tls_pe;
}

void* CloneMessage(const void* msg) {
  return CopyMessage(msg, Header(const_cast<void*>(msg))->total_size);
}

int CoreModuleId() {
  static const int id = RegisterModule(
      "core",
      [](int module_id) {
        auto* st = new CoreModuleState;
        st->exit_handler = CmiRegisterHandler([](void*) {
          CsdExitScheduler();
        });
        st->scatter_note_handler = CmiRegisterHandler([](void* msg) {
          // Relay for sender-side (zero-copy) scatter landings: payload is
          // {notify handler, match value}.  Enqueue the notify message into
          // the scheduler queue here, exactly like the receive-side path.
          std::uint32_t words[2];
          std::memcpy(words, CmiMsgPayload(msg), sizeof(words));
          PeState& pe = CpvChecked();
          void* note = CmiMakeMessage(static_cast<int>(words[0]), &words[1],
                                      sizeof(words[1]));
          pe.schedq.Enqueue(note);
          ++pe.stats.msgs_enqueued;
        });
        SetModuleState(module_id, st);
      },
      [](void* state) { delete static_cast<CoreModuleState*>(state); });
  return id;
}

/// A grabbed shared-broadcast view is read-only (the same bytes are live
/// on other PEs); send paths that restamp the header detach onto a private
/// copy first, releasing the view's block reference.
void* DetachSharedView(void* msg) {
  if ((Header(msg)->flags & kMsgFlagShared) == 0) return msg;
  void* copy = CloneMessage(msg);
  CmiFree(msg);
  return copy;
}

void SendSharedBlockFrom(PeState& pe, int dest_pe, void* block) {
  Machine& m = *pe.machine;
  assert(dest_pe >= 0 && dest_pe < m.npes() && "send to invalid PE");
  assert(!m.has_model() && "shared broadcasts need the plain (tree) path");
  // Per-sender FIFO choke point, as in SendOwnedFrom: earlier small sends
  // to this destination may still sit in an open frame.  No header
  // restamp, no check/race send hooks, no logical counters: the fan-out
  // was accounted at the broadcast root, the header is shared (read-only
  // off the root), and the race clock identity rides (root, seq) from
  // race::OnBcastRoot.
  if (!pe.agg.open.empty()) CstFlushDest(pe, dest_pe);
  if (SimCoordinator* sim = m.sim()) {
    sim->Send(pe, dest_pe, block, 0.0);
    return;
  }
  PushRegularFrom(pe, m.Pe(dest_pe), block);
}

namespace {

/// The prologue every owned send shares, regular or immediate: detach a
/// shared view, validate the message, stamp its source and per-sender
/// seq, and account the send (trace hook, counters, race clock).  Returns
/// the message to send, which differs from `msg` after a detach.  Regular
/// sends flush their open frames to `dest_pe` before this, so the frames'
/// earlier messages get the earlier seq stamps (per-sender FIFO).
void* SendPrologue(PeState& pe, int dest_pe, void* msg) {
  msg = DetachSharedView(msg);
  assert(dest_pe >= 0 && dest_pe < pe.machine->npes() &&
         "send to invalid PE");
  MsgHeader* h = Header(msg);
  check::OnSend(msg);
  assert(h->magic == kMsgMagicAlive && "sending a freed message");
  // With CciCheck on, a never-set handler is reported at dispatch time
  // (rule no-handler) with the sender PE named in the diagnostic.
  assert((CciCheckEnabled() || h->handler != 0xffffffffu) &&
         "sending a message with no handler");
  h->source_pe = static_cast<std::uint16_t>(pe.mype);
  h->seq = static_cast<std::uint32_t>(pe.send_seq++);
  // Carriers (aggregation frames, broadcast wrappers) are physical
  // envelopes: the logical messages inside were already counted — at
  // append time or at the broadcast root — so the envelope itself stays
  // invisible to the send counters and the trace.
  if ((h->flags & kMsgFlagCarrierMask) == 0) {
    if (pe.hooks != nullptr && pe.hooks->on_send != nullptr) {
      pe.hooks->on_send(pe.hooks->ud, h, dest_pe);
    }
    ++pe.stats.msgs_sent;
    ++pe.qd_created;
  }
  race::OnSend(pe, dest_pe, msg);
  return msg;
}

void SendOwnedFromImpl(PeState& pe, int dest_pe, void* msg, double delay_us,
                       bool allow_wire) {
  Machine& m = *pe.machine;
  assert((delay_us == 0.0 || m.sim() != nullptr) &&
         "delayed sends need a sim-backed machine");
  // Per-sender FIFO choke point: an open aggregation frame to this
  // destination holds earlier messages, so it must hit the wire first.
  // (CstFlushDest detaches the frame before re-entering here, so a frame's
  // own send passes straight through.)
  if (!pe.agg.open.empty()) CstFlushDest(pe, dest_pe);
  msg = SendPrologue(pe, dest_pe, msg);

  // Destinations on another node cross the wire.  A real backend consumes
  // the message (it now belongs to a peer process); the loopback wire
  // validates + counts the record and falls through (or consumes it when
  // the disconnect injector lost it), so sim delivery semantics are
  // untouched.  Single-node machines have no transport: this is one load
  // and one branch on the in-process fast path.
  if (allow_wire && m.transport() != nullptr &&
      m.NodeOf(dest_pe) != pe.node &&
      m.transport()->SendRemote(pe, dest_pe, msg, /*immediate=*/false)) {
    return;
  }

  if (SimCoordinator* sim = m.sim()) {
    // The simulator owns the whole delivery decision: fault injection,
    // NetModel latency and virtual-time arrival stamping, trace hashing.
    // Takes ownership.
    sim->Send(pe, dest_pe, msg, delay_us);
    return;
  }
  PushRegularFrom(pe, m.Pe(dest_pe), msg);
}

}  // namespace

void SendOwnedFrom(PeState& pe, int dest_pe, void* msg, double delay_us) {
  SendOwnedFromImpl(pe, dest_pe, msg, delay_us, /*allow_wire=*/true);
}

void SendOwnedFromLocal(PeState& pe, int dest_pe, void* msg,
                        double delay_us) {
  SendOwnedFromImpl(pe, dest_pe, msg, delay_us, /*allow_wire=*/false);
}

void SendOwned(int dest_pe, void* msg) {
  SendOwnedFrom(CpvChecked(), dest_pe, msg);
}

void DeliverFromWire(Machine& m, int dest_pe, void* msg, bool immediate) {
  assert(m.IsLocalPe(dest_pe) && "wire delivery to a PE we do not host");
  PeState& dst = m.Pe(dest_pe);
  if (immediate) {
    LanePush(dst, dst.immlane, msg);
  } else {
    LanePush(dst, LaneFor(dst, m.wire_lane(dest_pe - m.pe_begin())), msg);
  }
  NotifyIfParked(dst);
}

void SendOwnedImmediate(int dest_pe, void* msg) {
  PeState& pe = CpvChecked();
  Machine& m = *pe.machine;
  msg = SendPrologue(pe, dest_pe, msg);
  // Immediate messages bypass the sim's fault injector and latency model by
  // design — they are the reliable out-of-band control plane — but they are
  // still part of the deterministic trace.
  if (SimCoordinator* sim = m.sim()) {
    sim->RecordImmediateSend(pe, dest_pe, msg);
  }
  // Cross-node immediates ride the same wire but are exempt from the
  // loopback disconnect injector (they are the reliable control plane, as
  // with the sim's fault injector above).
  if (m.transport() != nullptr && m.NodeOf(dest_pe) != pe.node &&
      m.transport()->SendRemote(pe, dest_pe, msg, /*immediate=*/true)) {
    return;
  }
  PeState& dst = m.Pe(dest_pe);
  LanePush(dst, dst.immlane, msg);
  NotifyIfParked(dst);
}

void* PopNet(PeState& pe) {
  Machine& m = *pe.machine;
  for (;;) {
    // Out-of-band lane first: always ahead of regular traffic, never
    // delayed by the latency model.
    void* msg = PopImmediate(pe);
    if (msg == nullptr) {
      msg = m.sim() != nullptr ? PopTimed(pe, m) : PopRegular(pe);
    }
    if (msg == nullptr) return nullptr;
    if (!TryScatter(pe, msg)) return msg;
    // Scatter consumed the message; look for the next one.
  }
}

bool NetIsIdle(PeState& pe) {
  Machine& m = *pe.machine;
  if (HasImmediate(pe)) return false;
  if (m.sim() != nullptr) {
    std::scoped_lock lk(pe.mu);
    return pe.timedq.empty() || pe.timedq.top().arrive_us > m.ElapsedUs();
  }
  return !HasRegular(pe);
}

int DeliverAvailable(PeState& pe, int budget) {
  int delivered = 0;
  while (budget < 0 || delivered < budget) {
    if (pe.exit_requested) break;
    void* msg = nullptr;
    if (!pe.heldq.empty()) {
      msg = pe.heldq.front();
      pe.heldq.pop_front();
    } else {
      msg = PopNet(pe);
      if (msg == nullptr) break;
    }
    SimCoordinator* sim = pe.machine->sim();
    if ((Header(msg)->flags & kMsgFlagCarrierMask) != 0) {
      // One wire message, possibly many logical deliveries: a counted
      // budget can overshoot (a frame unpacks atomically) but never stall.
      delivered += CstDeliverCarrier(pe, msg);
    } else {
      ++pe.stats.msgs_delivered;
      race::OnWireDeliver(pe, msg, /*was_bcast=*/false);
      if (sim != nullptr) sim->RecordDeliver(pe, msg);
      DispatchMessage(msg, /*system_owned=*/true);
      ++delivered;
    }
    // Dispatch boundaries are the sim's primary preemption points.
    if (sim != nullptr) sim->YieldPoint(pe);
  }
  return delivered;
}

void WaitForNet(PeState& pe) {
  // A PE about to block must push its open aggregation frames first: the
  // messages inside may be the very ones the awaited reply depends on.
  CstFlushAll(pe);
  Machine& m = *pe.machine;
  if (SimCoordinator* sim = m.sim()) {
    // Under the simulator an idle PE releases the baton instead of parking
    // on the condvar; it returns runnable (or unwinds on abort/deadlock).
    ++pe.stats.idle_blocks;
    if (pe.hooks != nullptr && pe.hooks->on_idle_begin != nullptr) {
      pe.hooks->on_idle_begin(pe.hooks->ud);
    }
    sim->BlockForNet(pe);
    if (pe.hooks != nullptr && pe.hooks->on_idle_end != nullptr) {
      pe.hooks->on_idle_end(pe.hooks->ud);
    }
    return;
  }
  // Optional spin phase: poll without sleeping or locking for a configured
  // window — dedicated-node behavior; fall through to the blocking wait
  // after.
  const double spin_us = m.config().idle_spin_us;
  if (spin_us > 0) {
    const double deadline = m.ElapsedUs() + spin_us;
    while (m.ElapsedUs() < deadline) {
      if (m.aborted()) throw MachineAborted{};
      if (HasImmediate(pe) || HasRegular(pe)) return;
    }
  }
  // From here on the PE is idle: the yield phase and the park below are
  // one idle block as far as stats and trace hooks are concerned.
  ++pe.stats.idle_blocks;
  if (pe.hooks != nullptr && pe.hooks->on_idle_begin != nullptr) {
    pe.hooks->on_idle_begin(pe.hooks->ud);
  }
  const auto idle_end = [&pe] {
    if (pe.hooks != nullptr && pe.hooks->on_idle_end != nullptr) {
      pe.hooks->on_idle_end(pe.hooks->ud);
    }
  };
  // Yield phase: before paying for a futex park, hand the core to
  // whichever thread is runnable a few times.  On oversubscribed hosts the
  // producer usually runs in that window and the park — plus the
  // producer's matching lock+notify — never happens.  Bounded, so a PE
  // with genuinely nothing to do still parks promptly.
  constexpr int kYieldRounds = 32;
  for (int i = 0; i < kYieldRounds; ++i) {
    if (m.aborted()) throw MachineAborted{};
    if (HasImmediate(pe) || HasRegular(pe)) {
      idle_end();
      return;
    }
    std::this_thread::yield();
  }
  // Park.  The seq_cst parked store before the final deliverability probe
  // pairs with the producers' seq_cst publish (data-lane cell store,
  // immediate-ring tail CAS, overflow count bump) followed by their parked
  // load, and the seq_cst lane-count load in HasRegular sees every lane
  // registered before that publish: in every interleaving either we see
  // the message and skip the sleep, or the producer sees parked==true and
  // notifies under the mutex.
  pe.parked.store(true, std::memory_order_seq_cst);
  struct Unpark {
    PeState& pe;
    ~Unpark() { pe.parked.store(false, std::memory_order_seq_cst); }
  } unpark{pe};
  if (m.aborted()) throw MachineAborted{};
  if (HasImmediate(pe) || HasRegular(pe)) {
    idle_end();
    return;
  }

  std::unique_lock lk(pe.mu);
  for (;;) {
    if (m.aborted()) throw MachineAborted{};
    if (HasImmediate(pe) || HasRegular(pe)) break;
    pe.cv.wait(lk);
  }
  idle_end();
}

namespace {

/// Fold launcher environment (tools/converserun sets the CONVERSE_NODE
/// family on every rank it spawns) into the config and normalize the node
/// topology.  All integer variables go through the strict parser: a
/// malformed value keeps the built-in default and prints one "[Cmi]" line.
void ResolveTransportConfig(MachineConfig& c, std::FILE* err) {
  if (std::getenv("CONVERSE_NODE") != nullptr) {
    c.mynode = static_cast<int>(
        GetEnvInt("CONVERSE_NODE", c.mynode, err, /*warn=*/true));
    c.nnodes = static_cast<int>(
        GetEnvInt("CONVERSE_NNODES", c.nnodes, err, true));
    c.npes = static_cast<int>(GetEnvInt("CONVERSE_NPES", c.npes, err, true));
    if (const char* t = std::getenv("CONVERSE_TRANSPORT")) {
      if (std::strcmp(t, "socket") == 0) {
        c.transport = CmiTransport::kSocket;
      } else if (std::strcmp(t, "smp") == 0) {
        c.transport = CmiTransport::kSmpNode;
      } else if (std::strcmp(t, "inproc") == 0) {
        c.transport = CmiTransport::kInproc;
      } else {
        std::fprintf(err,
                     "[Cmi] ignoring unknown CONVERSE_TRANSPORT=\"%s\" "
                     "(want inproc|socket|smp)\n",
                     t);
      }
    }
  }
  if (c.rendezvous_dir == nullptr) {
    c.rendezvous_dir = std::getenv("CONVERSE_RDV");  // may stay null (TCP)
  }
  if (c.tcp_base_port == 0) {
    c.tcp_base_port =
        static_cast<int>(GetEnvInt("CONVERSE_TCP_BASE", 0, err, true));
  }
  if (c.wire_timeout_ms == 0) {
    c.wire_timeout_ms = static_cast<int>(
        GetEnvInt("CONVERSE_WIRE_TIMEOUT_MS", 10000, err, true));
  }
  switch (c.transport) {
    case CmiTransport::kInproc:
      c.nnodes = 1;
      break;
    case CmiTransport::kSocket:
      c.nnodes = c.npes;  // one process per PE
      break;
    case CmiTransport::kSmpNode:
      break;
  }
  if (c.nnodes < 1) c.nnodes = 1;
  if (c.nnodes > c.npes) c.nnodes = c.npes;
  if (c.nnodes == 1) c.mynode = c.mynode < 0 ? -1 : 0;
  assert(c.mynode < c.nnodes && "CONVERSE_NODE out of range");
  if (c.mynode >= 0) {
    // Real multi-process mode: delivery decisions live partly in peer
    // processes, which is incompatible with the sim's global serialization
    // (and so with a NetModel, which runs on the sim).  Loopback mode
    // (mynode == -1) supports both.
    assert(c.sim == nullptr &&
           "the deterministic sim and a NetModel (which runs on it) drive "
           "socket transports in loopback mode (mynode == -1), not across "
           "real processes");
  }
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      model_(config.model != nullptr ? *config.model : NetModel{}),
      tree_(config.npes, 0, config.spantree_branching),
      out_(config.out != nullptr ? config.out : stdout),
      err_(config.err != nullptr ? config.err : stderr),
      in_(config.in != nullptr ? config.in : stdin) {
  assert(config.npes >= 1);
  // A NetModel prices latency on the sim's virtual clock: a model without
  // a sim runs on a default SimConfig.
  if (config_.model != nullptr && config_.sim == nullptr) {
    config_.sim = &sim_config_;
  }
  ResolveTransportConfig(config_, err_);
  tree_ = util::SpanningTree(config_.npes, 0, config_.spantree_branching);
  pe_begin_ = config_.mynode >= 0 ? NodeFirst(config_.mynode) : 0;
  pe_end_ = config_.mynode >= 0 ? pe_begin_ + NodeSize(config_.mynode)
                                : config_.npes;
  pes_.reserve(static_cast<std::size_t>(local_npes()));
  util::SplitMix64 seeder(config_.seed);
  // Skip the seed draws of PEs hosted by lower-ranked processes so a PE's
  // RNG stream is identical no matter which process hosts it.
  for (int i = 0; i < pe_begin_; ++i) seeder.Next();
  const std::size_t ring_cap = static_cast<std::size_t>(
      config_.ring_capacity < 1 ? 1 : config_.ring_capacity);
  // Data-lane producer slots: every other local PE (self-sends use selfq),
  // plus the comm thread when a wire backend may deliver into this
  // process.  Sim-backed machines deliver regular traffic through timedq
  // and get no lane table at all (sim() is not valid yet: sim_ is created
  // below).
  const int lane_slots = local_npes() - 1 + (multi_node() ? 1 : 0);
  const bool lanes = config_.sim == nullptr;
  for (int i = pe_begin_; i < pe_end_; ++i) {
    auto pe = std::make_unique<PeState>();
    pe->machine = this;
    pe->mype = i;
    pe->npes = config_.npes;
    pe->node = NodeOf(i);
    pe->rng = util::Xoshiro256(seeder.Next());
    if (lanes) {
      pe->lanes = std::make_unique<std::unique_ptr<DataLane>[]>(
          static_cast<std::size_t>(lane_slots));
      pe->out_lanes =
          std::make_unique<DataLane*[]>(static_cast<std::size_t>(local_npes()));
    }
    pe->immlane.ring.Init(ring_cap);
    pe->lane_burst_max = static_cast<std::uint32_t>(RingSlots(ring_cap));
    pe->pool = MsgPoolEnabled() ? MsgPoolForSlot(i - pe_begin_) : nullptr;
    CstInitPe(*pe);
    pes_.push_back(std::move(pe));
  }
  if (config_.sim != nullptr) {
    sim_config_ = *config_.sim;
    config_.sim = &sim_config_;  // caller's SimConfig need not outlive us
    sim_ = std::make_unique<SimCoordinator>(*this, sim_config_);
  }
  if (lanes && multi_node()) {
    wire_lanes_.assign(static_cast<std::size_t>(local_npes()), nullptr);
  }
  transport_ = MakeTransport(*this);
  race::MachineCreate(*this);
}

Machine::~Machine() {
  if (sim_ != nullptr) {
    // Messages the fault injector or the flip mechanism still holds back
    // (possible only after an abort) are machine-owned like everything else
    // at teardown.
    while (void* held = sim_->TakeHeldMessage()) {
      detail::check::OnReclaim(held);
      CmiFree(held);
    }
    sim_->FillReport();
  }
  race::MachineDestroy(*this);
  for (auto& pe : pes_) DrainQueues(*pe);
}

void Machine::DrainQueues(PeState& pe) {
  // Teardown: the machine reclaims every buffer it still owns; OnReclaim
  // tells the checker these frees are the machine layer's prerogative.
  // PE threads have joined, so the destructor is the rings' consumer.
  CstDrain(pe);
  const auto reclaim = [](auto& lane) {
    auto& ring = lane.ring;
    LaneOverflow& ovf = lane.ovf;
    for (void* msg = ring.TryPop(); msg != nullptr; msg = ring.TryPop()) {
      detail::check::OnReclaim(msg);
      CmiFree(msg);
    }
    while (!ovf.overflow.empty()) {
      detail::check::OnReclaim(ovf.overflow.front());
      CmiFree(ovf.overflow.front());
      ovf.overflow.pop_front();
    }
    ovf.overflow_count.store(0, std::memory_order_relaxed);
  };
  const int nlanes = pe.nlanes.load(std::memory_order_relaxed);
  for (int i = 0; i < nlanes; ++i) {
    reclaim(*pe.lanes[static_cast<std::size_t>(i)]);
  }
  reclaim(pe.immlane);
  for (std::deque<void*>* q : {&pe.batchq, &pe.selfq, &pe.imm_batchq}) {
    while (!q->empty()) {
      detail::check::OnReclaim(q->front());
      CmiFree(q->front());
      q->pop_front();
    }
  }
  while (!pe.timedq.empty()) {
    detail::check::OnReclaim(pe.timedq.top().msg);
    CmiFree(pe.timedq.top().msg);
    pe.timedq.pop();
  }
  while (!pe.heldq.empty()) {
    detail::check::OnReclaim(pe.heldq.front());
    CmiFree(pe.heldq.front());
    pe.heldq.pop_front();
  }
  for (void* msg = pe.schedq.Dequeue(); msg != nullptr;
       msg = pe.schedq.Dequeue()) {
    CmiFree(msg);
  }
  if (pe.pending_mmi != nullptr && !pe.pending_mmi_grabbed) {
    detail::check::OnReclaim(pe.pending_mmi);
    CmiFree(pe.pending_mmi);
    pe.pending_mmi = nullptr;
  }
}

double Machine::ElapsedUs() const {
  if (sim_ != nullptr) return sim_->NowUs();  // virtual time
  return static_cast<double>(util::NowNs() - start_ns_) * 1e-3;
}

void Machine::Abort(std::exception_ptr e) {
  {
    std::scoped_lock lk(abort_mu_);
    if (!first_error_ && e) first_error_ = e;
  }
  aborted_.store(true, std::memory_order_relaxed);
  if (sim_ != nullptr) sim_->OnAbort();
  for (auto& pe : pes_) {
    std::scoped_lock lk(pe->mu);
    pe->cv.notify_all();
  }
}

Machine* Machine::Current() { return g_current_machine; }

void Machine::Run(const std::function<void(int pe, int npes)>& entry) {
  assert(g_current_machine == nullptr &&
         "machines must run sequentially within a process");
  g_current_machine = this;
  start_ns_ = util::NowNs();
  CoreModuleId();  // make sure the core module is registered

  // Barriers span the PEs *this process* hosts; in real multi-process
  // mode remote PEs synchronize through the wire traffic itself (there is
  // deliberately no global startup barrier — sends queue until peers
  // finish their rendezvous).
  const int local_n = local_npes();
  std::barrier start_barrier(local_n);
  std::barrier finish_barrier(local_n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(local_n));
  if (transport_ != nullptr) transport_->Start();

  for (int i = 0; i < local_n; ++i) {
    threads.emplace_back([this, i, &entry, &start_barrier, &finish_barrier] {
      PeState& pe = *pes_[static_cast<std::size_t>(i)];
      tls_pe = &pe;
      try {
        RunPeInitHooks();
      } catch (...) {
        Abort(std::current_exception());
      }
      start_barrier.arrive_and_wait();
      if (!aborted()) {
        try {
          // Under the simulator, wait for the first baton grant here so OS
          // thread startup order cannot leak into the schedule.
          if (sim_ != nullptr) sim_->PeStart(pe);
          entry(pe.mype, pe.npes);
          // Whatever the entry left in open aggregation frames still has
          // to reach its receivers (their schedulers may still be running).
          CstFlushAll(pe);
        } catch (MachineAborted&) {
          // Another PE failed; unwind quietly.
        } catch (...) {
          Abort(std::current_exception());
        }
        if (sim_ != nullptr) sim_->PeFinish(pe);
      }
      if (!aborted()) check::OnPeFinish();
      finish_barrier.arrive_and_wait();
      try {
        RunPeFiniHooks();
      } catch (...) {
        Abort(std::current_exception());
      }
      tls_pe = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  // The comm thread is a lane producer, so it must stop before the
  // destructor drains queues — and before rethrow, so an aborting machine
  // still says goodbye to (or times out on) its peers.
  if (transport_ != nullptr) transport_->Stop();
  g_current_machine = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void RunConverse(const MachineConfig& config,
                 const std::function<void(int pe, int npes)>& entry) {
  detail::Machine machine(config);
  machine.Run(entry);
}

void RunConverse(int npes,
                 const std::function<void(int pe, int npes)>& entry) {
  MachineConfig config;
  config.npes = npes;
  RunConverse(config, entry);
}

bool CmiInsideMachine() { return detail::Cpv() != nullptr; }

int CmiMyPe() { return detail::CpvChecked().mype; }
int CmiNumPes() { return detail::CpvChecked().npes; }

int CmiMyNode() { return detail::CpvChecked().node; }
int CmiNumNodes() { return detail::CpvChecked().machine->nnodes(); }
int CmiNodeOf(int pe) { return detail::CpvChecked().machine->NodeOf(pe); }
int CmiNodeFirst(int node) {
  return detail::CpvChecked().machine->NodeFirst(node);
}
int CmiNodeSize(int node) {
  return detail::CpvChecked().machine->NodeSize(node);
}
int CmiMyRank() {
  detail::PeState& pe = detail::CpvChecked();
  return pe.mype - pe.machine->NodeFirst(pe.node);
}

double CmiTimer() {
  return detail::CpvChecked().machine->ElapsedUs() * 1e-6;
}

double CmiCpuTimer() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void CmiSyncSend(unsigned int dest_pe, unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  // Small remote messages append into the destination's aggregation frame
  // (one copy, no allocation) when the layer is on; everything else takes
  // the classic copy-and-push path.
  if (detail::CstTrySmallSend(pe, static_cast<int>(dest_pe), msg, size,
                              nullptr)) {
    return;
  }
  detail::SendOwnedFrom(pe, static_cast<int>(dest_pe),
                        detail::CopyMessage(msg, size));
}

void CmiSyncSendAndFree(unsigned int dest_pe, unsigned int size, void* msg) {
  auto* h = detail::Header(msg);
  if (CciCheckEnabled() && h->magic != detail::kMsgMagicAlive) {
    detail::check::Violate(CciRule::kUseAfterFree, msg,
                           "CmiSyncSendAndFree of a freed message (header "
                           "magic 0x%08x)", h->magic);
  }
  assert(h->magic == detail::kMsgMagicAlive);
  msg = detail::DetachSharedView(msg);
  h = detail::Header(msg);
  h->total_size = size;
  detail::PeState& pe = detail::CpvChecked();
  // Guard against handing the machine a buffer the dispatcher still owns.
  // With CciCheck on, SendOwned's OnSend hook reports the precise rule.
  assert((CciCheckEnabled() || pe.sysbuf_stack.empty() ||
          pe.sysbuf_stack.back().msg != msg ||
          pe.sysbuf_stack.back().grabbed) &&
         "CmiSyncSendAndFree on an ungrabbed system buffer; call "
         "CmiGrabBuffer first");
  if (detail::CstTrySmallSend(pe, static_cast<int>(dest_pe), msg, size,
                              nullptr)) {
    // The frame holds a copy; the original goes through the normal send
    // ownership transition (so CciCheck still diagnoses misuse) and is
    // reclaimed by the machine layer right here.
    detail::check::OnSend(msg);
    detail::check::OnReclaim(msg);
    CmiFree(msg);
    return;
  }
  detail::SendOwnedFrom(pe, static_cast<int>(dest_pe), msg);
}

void CmiSyncSendDelayedAndFree(unsigned int dest_pe, unsigned int size,
                               void* msg, double delay_us) {
  auto* h = detail::Header(msg);
  if (CciCheckEnabled() && h->magic != detail::kMsgMagicAlive) {
    detail::check::Violate(CciRule::kUseAfterFree, msg,
                           "CmiSyncSendDelayedAndFree of a freed message "
                           "(header magic 0x%08x)", h->magic);
  }
  assert(h->magic == detail::kMsgMagicAlive);
  assert(delay_us >= 0.0 && "negative send delay");
  msg = detail::DetachSharedView(msg);
  h = detail::Header(msg);
  h->total_size = size;
  detail::PeState& pe = detail::CpvChecked();
  // Timed messages skip the aggregation layer on purpose: a frame would
  // couple their delivery time to unrelated traffic to the same
  // destination, and they carry no FIFO contract that frames preserve.
  detail::SendOwnedFrom(pe, static_cast<int>(dest_pe), msg,
                        pe.machine->sim() != nullptr ? delay_us : 0.0);
}

CommHandle CmiAsyncSend(unsigned int dest_pe, unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  if (detail::CstWouldAggregate(pe, static_cast<int>(dest_pe), size)) {
    // The message sits in an open frame until it flushes: a genuinely
    // deferred operation, tracked by a completion record.
    auto* c = new detail::AsyncCompletion{0, false};
    if (detail::CstTrySmallSend(pe, static_cast<int>(dest_pe), msg, size,
                                c)) {
      if (c->pending == 0) {  // the append itself filled the frame
        delete c;
        return CommHandle{nullptr};
      }
      return CommHandle{c};
    }
    delete c;
  }
  // Otherwise the machine copies eagerly, so the operation completes
  // before the call returns; the handle is born "done".
  detail::SendOwnedFrom(pe, static_cast<int>(dest_pe),
                        detail::CopyMessage(msg, size));
  return CommHandle{nullptr};
}

int CmiAsyncMsgSent(CommHandle handle) {
  if (handle.rec == nullptr) return 1;
  return static_cast<detail::AsyncCompletion*>(handle.rec)->pending == 0 ? 1
                                                                         : 0;
}

void CmiReleaseCommHandle(CommHandle handle) {
  auto* c = static_cast<detail::AsyncCompletion*>(handle.rec);
  if (c == nullptr) return;
  if (c->pending == 0) {
    delete c;
  } else {
    c->released = true;  // the last completion deletes it
  }
}

CommHandle CmiVectorSend(int dest_pe, int handler_id, int len,
                         const int sizes[], const void* const data_array[]) {
  // The summed segment sizes become a u32 total_size on the wire; validate
  // unconditionally (not just in debug builds) so a negative length or an
  // overflowing sum can never silently wrap into a short allocation.
  constexpr std::size_t kMaxTotal = 0xffffffffu;
  std::size_t payload = 0;
  for (int i = 0; i < len; ++i) {
    if (sizes[i] < 0) {
      detail::check::Violate(CciRule::kGatherOverflow, nullptr,
                             "CmiVectorSend: segment %d has negative size %d",
                             i, sizes[i]);
    }
    payload += static_cast<std::size_t>(sizes[i]);
    if (payload > kMaxTotal - sizeof(detail::MsgHeader)) {
      detail::check::Violate(CciRule::kGatherOverflow, nullptr,
                             "CmiVectorSend: summed segment sizes overflow "
                             "the 32-bit message size at segment %d", i);
    }
  }
  const std::size_t total_bytes = sizeof(detail::MsgHeader) + payload;
  detail::PeState& pe = detail::CpvChecked();
  // A pre-registered scatter on the destination can land the pieces
  // straight in the user's buffers — no message allocation at all.
  if (detail::TryScatterDirect(pe, dest_pe, len, sizes, data_array,
                               payload)) {
    return CommHandle{nullptr};
  }
  if (void* image = detail::CstReserveMsg(
          pe, dest_pe, static_cast<std::uint32_t>(total_bytes))) {
    // Gather the pieces straight into the reserved frame entry — no
    // intermediate message buffer at all.
    detail::MsgHeader h{};
    h.handler = static_cast<std::uint32_t>(handler_id);
    h.total_size = static_cast<std::uint32_t>(total_bytes);
    h.queueing = static_cast<std::uint8_t>(Queueing::kFifo);
    h.magic = detail::kMsgMagicAlive;
    std::memcpy(image, &h, sizeof(h));
    char* out = static_cast<char*>(image) + sizeof(h);
    for (int i = 0; i < len; ++i) {
      std::memcpy(out, data_array[i], static_cast<std::size_t>(sizes[i]));
      out += sizes[i];
    }
    detail::CstCommitMsg(pe, dest_pe, image,
                         static_cast<std::uint32_t>(total_bytes), nullptr);
    return CommHandle{nullptr};
  }
  void* msg = CmiAlloc(total_bytes);
  CmiSetHandler(msg, handler_id);
  char* out = static_cast<char*>(CmiMsgPayload(msg));
  for (int i = 0; i < len; ++i) {
    std::memcpy(out, data_array[i], static_cast<std::size_t>(sizes[i]));
    out += sizes[i];
  }
  detail::SendOwnedFrom(pe, dest_pe, msg);
  return CommHandle{nullptr};
}

void* CmiGetMsg() {
  detail::PeState& pe = detail::CpvChecked();
  detail::FlushPendingMmi(pe);
  void* msg = nullptr;
  for (;;) {
    if (!pe.heldq.empty()) {
      msg = pe.heldq.front();
      pe.heldq.pop_front();
      break;
    }
    msg = detail::PopNet(pe);
    if (msg == nullptr) break;
    if ((detail::Header(msg)->flags & detail::kMsgFlagCarrierMask) != 0) {
      // Unpack the carrier's logical messages (which may be zero, if
      // scatters consumed them all) and look again.
      detail::CstUnpackToHeld(pe, msg);
      msg = nullptr;
      continue;
    }
    break;
  }
  if (msg != nullptr) {
    detail::check::OnMmiReturn(msg);
    detail::race::OnMmiReturn(pe, msg);
    pe.pending_mmi = msg;
    pe.pending_mmi_grabbed = false;
  }
  return msg;
}

int CmiDeliverMsgs(int max_msgs) {
  detail::PeState& pe = detail::CpvChecked();
  const int n = detail::DeliverAvailable(pe, max_msgs);
  // The caller resumes having observed every handler the loop ran.
  detail::race::OnSchedulerReturn(pe);
  return n;
}

void* CmiGetSpecificMsg(int handler_id) {
  detail::PeState& pe = detail::CpvChecked();
  detail::FlushPendingMmi(pe);
  // First look through messages buffered by earlier calls (and by carrier
  // unpacking below).
  const auto take_held = [&pe, handler_id]() -> void* {
    for (auto it = pe.heldq.begin(); it != pe.heldq.end(); ++it) {
      if (CmiGetHandler(*it) == handler_id) {
        void* msg = *it;
        pe.heldq.erase(it);
        return msg;
      }
    }
    return nullptr;
  };
  void* msg = take_held();
  while (msg == nullptr) {
    void* net = detail::PopNet(pe);
    if (net == nullptr) {
      detail::WaitForNet(pe);
      continue;
    }
    if ((detail::Header(net)->flags & detail::kMsgFlagCarrierMask) != 0) {
      detail::CstUnpackToHeld(pe, net);
      msg = take_held();
      continue;
    }
    if (CmiGetHandler(net) == handler_id) {
      msg = net;
    } else {
      pe.heldq.push_back(net);  // buffer messages meant for other handlers
    }
  }
  detail::check::OnMmiReturn(msg);
  detail::race::OnMmiReturn(pe, msg);
  pe.pending_mmi = msg;
  pe.pending_mmi_grabbed = false;
  return msg;
}

void CmiGrabBuffer(void** pbuf) {
  detail::PeState& pe = detail::CpvChecked();
  void* buf = *pbuf;
  if (pe.pending_mmi == buf) {
    detail::check::OnGrab(buf, pe.pending_mmi_grabbed);
    pe.pending_mmi_grabbed = true;
    return;
  }
  for (auto it = pe.sysbuf_stack.rbegin(); it != pe.sysbuf_stack.rend();
       ++it) {
    if (it->msg == buf) {
      detail::check::OnGrab(buf, it->grabbed);
      it->grabbed = true;
      return;
    }
  }
  if (CciCheckEnabled()) detail::check::OnGrabMiss(buf);
  assert(false &&
         "CmiGrabBuffer: buffer is not a system-owned message being "
         "delivered on this PE");
}

// Without a latency model, broadcasts go down the machine spanning tree
// (CstTreeCast): the root sends one wrapper per tree child and interior PEs
// re-forward, so no single PE pays O(npes) sends.  With a model attached
// the flat per-destination loops below are kept — each copy must be priced
// (and delayed) individually.
void CmiSyncBroadcast(unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  if (detail::CstUseTree(pe)) {
    detail::CstTreeCast(pe, msg, size, /*include_self=*/false,
                        /*defer=*/false);
    return;
  }
  for (int i = 0; i < pe.npes; ++i) {
    if (i == pe.mype) continue;
    ++pe.stats.bcast_payload_copies;
    detail::SendOwnedFrom(pe, i, detail::CopyMessage(msg, size));
  }
}

void CmiSyncBroadcastAll(unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  if (detail::CstUseTree(pe)) {
    detail::CstTreeCast(pe, msg, size, /*include_self=*/true,
                        /*defer=*/false);
    return;
  }
  for (int i = 0; i < pe.npes; ++i) {
    ++pe.stats.bcast_payload_copies;
    detail::SendOwnedFrom(pe, i, detail::CopyMessage(msg, size));
  }
}

void CmiSyncBroadcastAllAndFree(unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  auto* h = detail::Header(msg);
  if (CciCheckEnabled() && h->magic != detail::kMsgMagicAlive) {
    detail::check::Violate(CciRule::kUseAfterFree, msg,
                           "CmiSyncBroadcastAllAndFree of a freed message "
                           "(header magic 0x%08x)", h->magic);
  }
  assert(h->magic == detail::kMsgMagicAlive);
  msg = detail::DetachSharedView(msg);
  h = detail::Header(msg);
  if (detail::CstUseTree(pe)) {
    // The tree cast reads `msg` into the wrapper; the original is then
    // delivered to self, honoring the and-free ownership transfer.
    detail::CstTreeCast(pe, msg, size, /*include_self=*/false,
                        /*defer=*/false);
    h->total_size = size;
    detail::SendOwnedFrom(pe, pe.mype, msg);
    return;
  }
  // Copies go to the other PEs; the original is delivered to self instead
  // of being copied once more and freed (npes allocations, not npes + 1).
  for (int i = 0; i < pe.npes; ++i) {
    if (i == pe.mype) continue;
    ++pe.stats.bcast_payload_copies;
    detail::SendOwnedFrom(pe, i, detail::CopyMessage(msg, size));
  }
  h->total_size = size;
  detail::SendOwnedFrom(pe, pe.mype, msg);
}

CommHandle CmiAsyncBroadcast(unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  if (detail::CstUseTree(pe)) {
    return CommHandle{detail::CstTreeCast(pe, msg, size,
                                          /*include_self=*/false,
                                          /*defer=*/true)};
  }
  CmiSyncBroadcast(size, msg);
  return CommHandle{nullptr};
}

CommHandle CmiAsyncBroadcastAll(unsigned int size, void* msg) {
  detail::PeState& pe = detail::CpvChecked();
  if (detail::CstUseTree(pe)) {
    return CommHandle{detail::CstTreeCast(pe, msg, size,
                                          /*include_self=*/true,
                                          /*defer=*/true)};
  }
  CmiSyncBroadcastAll(size, msg);
  return CommHandle{nullptr};
}

void CmiSyncSendImmediate(unsigned int dest_pe, unsigned int size,
                          void* msg) {
  detail::SendOwnedImmediate(static_cast<int>(dest_pe),
                             detail::CopyMessage(msg, size));
}

void CmiSyncSendImmediateAndFree(unsigned int dest_pe, unsigned int size,
                                 void* msg) {
  msg = detail::DetachSharedView(msg);
  detail::Header(msg)->total_size = size;
  detail::SendOwnedImmediate(static_cast<int>(dest_pe), msg);
}

int CmiProbeImmediates() {
  detail::PeState& pe = detail::CpvChecked();
  int delivered = 0;
  detail::SimCoordinator* sim = pe.machine->sim();
  for (;;) {
    void* msg = detail::PopImmediate(pe);
    if (msg == nullptr) break;
    ++pe.stats.msgs_delivered;
    detail::race::OnWireDeliver(pe, msg, /*was_bcast=*/false,
                                /*immediate=*/true);
    if (sim != nullptr) sim->RecordDeliver(pe, msg);
    detail::DispatchMessage(msg, /*system_owned=*/true);
    ++delivered;
  }
  return delivered;
}

CmiStats CmiGetStats() {
  detail::PeState& pe = detail::CpvChecked();
  CmiStats s = pe.stats;
  // Node-level wire counters mirror onto every local PE's snapshot, like
  // the machine-wide reading of the agg/bcast counters in tests.  Absent
  // a transport (single-node machine) they stay exactly zero.
  if (detail::Transport* t = pe.machine->transport()) t->FoldStats(s);
  return s;
}

void ConverseBroadcastExit() {
  const int handler = detail::CoreState().exit_handler;
  void* msg = CmiAlloc(sizeof(detail::MsgHeader));
  CmiSetHandler(msg, handler);
  CmiSyncBroadcastAllAndFree(sizeof(detail::MsgHeader), msg);
}

}  // namespace converse

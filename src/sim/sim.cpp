// Deterministic-simulation coordinator — implementation.  See
// sim_internal.h for the execution model and locking rules.
#include "sim/sim_internal.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "converse/check.h"
#include "converse/cmi.h"
#include "converse/msg.h"
#include "converse/util/crc.h"
#include "core/pe_state.h"
#include "core/stream.h"

namespace converse::detail {

SimCoordinator::SimCoordinator(Machine& m, const SimConfig& cfg)
    : m_(m),
      cfg_(cfg),
      npes_(m.npes()),
      slots_(static_cast<std::size_t>(m.npes())),
      rng_(cfg.seed) {}

void SimCoordinator::HashEvent(Event kind, std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (std::uint64_t w : {static_cast<std::uint64_t>(kind), a, b, c}) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (w & 0xffu)) * kPrime;
      w >>= 8;
    }
  }
  ++events_;
}

bool SimCoordinator::Deliverable(PeState& pe) {
  // Reading another thread's consumer-private lane state is safe here: the
  // owner is blocked (it parked through mu_, which we hold), so its last
  // writes happen-before our reads via the mutex handoff.  A sim machine
  // (with or without a NetModel) routes regular traffic through timedq and
  // has no data lanes, so the immediate lane is the only ring to probe.
  if (pe.immlane.ring.HasItems() ||
      pe.immlane.ovf.overflow_count.load(std::memory_order_seq_cst) != 0) {
    return true;
  }
  if (!pe.imm_batchq.empty() || !pe.batchq.empty()) return true;
  const double now = NowUs();
  std::scoped_lock plk(pe.mu);
  return !pe.timedq.empty() && pe.timedq.top().arrive_us <= now;
}

void SimCoordinator::PushTimed(int dest_pe, void* msg, double arrive_us) {
  PeState& dst = m_.Pe(dest_pe);
  std::scoped_lock plk(dst.mu);
  dst.timedq.push(NetEntry{msg, arrive_us, dst.net_seq++});
}

void SimCoordinator::WakeAllPesLocked() {
  for (Slot& s : slots_) s.cv.notify_all();
}

void SimCoordinator::DeadlockAbortLocked(std::unique_lock<std::mutex>& lk,
                                         const std::string& reason) {
  abort_mode_ = true;
  WakeAllPesLocked();
  std::string what = "converse sim: deadlock detected — " + reason +
                     " (replay with seed " + std::to_string(cfg_.seed) + ")";
  // Machine::Abort re-enters OnAbort (which takes mu_) and notifies every
  // PE condvar, so it must run unlocked.
  lk.unlock();
  m_.Abort(std::make_exception_ptr(std::runtime_error(what)));
  lk.lock();
}

void SimCoordinator::ScheduleNextLocked(std::unique_lock<std::mutex>& lk) {
  if (abort_mode_) {
    WakeAllPesLocked();
    return;
  }
  for (;;) {
    cand_.clear();
    int alive = 0;
    for (int i = 0; i < npes_; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      if (s.state == PeRunState::kDone || s.state == PeRunState::kNew) {
        continue;
      }
      ++alive;
      if (s.state == PeRunState::kReady) {
        cand_.push_back(i);
      } else if (s.state == PeRunState::kBlocked &&
                 (m_.Pe(i).exit_requested || Deliverable(m_.Pe(i)))) {
        cand_.push_back(i);
      }
    }
    if (!cand_.empty()) {
      const int pick = cand_[static_cast<std::size_t>(
          rng_.Below(static_cast<std::uint64_t>(cand_.size())))];
      Slot& granted = slots_[static_cast<std::size_t>(pick)];
      granted.state = PeRunState::kRunning;
      if (pick != last_running_) {
        ++context_switches_;
        HashEvent(Event::kSwitch, static_cast<std::uint64_t>(pick), 0, 0);
        last_running_ = pick;
      }
      // Wake only the granted PE.  When the caller re-granted itself, no
      // thread is waiting on this cv and the notify is a no-op.
      granted.cv.notify_all();
      return;
    }
    if (alive == 0) return;  // last PE just finished; nothing left to grant

    // Every live PE is blocked with nothing deliverable: advance the
    // virtual clock straight to the earliest pending arrival.
    double min_arrive = std::numeric_limits<double>::infinity();
    for (int i = 0; i < npes_; ++i) {
      if (slots_[static_cast<std::size_t>(i)].state == PeRunState::kDone) {
        continue;  // nobody will ever consume a finished PE's queue
      }
      PeState& pe = m_.Pe(i);
      std::scoped_lock plk(pe.mu);
      if (!pe.timedq.empty() && pe.timedq.top().arrive_us < min_arrive) {
        min_arrive = pe.timedq.top().arrive_us;
      }
    }
    if (min_arrive < std::numeric_limits<double>::infinity()) {
      {
        std::scoped_lock clk(clock_mu_);
        if (min_arrive > now_us_) now_us_ = min_arrive;
      }
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(min_arrive));
      std::memcpy(&bits, &min_arrive, sizeof(bits));
      HashEvent(Event::kAdvance, bits, 0, 0);
      continue;  // re-scan: some blocked PE is deliverable now
    }

    // No future arrival either.  A held-back (reorder-fault) message would
    // make this look quiescent when it is not: flush it first.
    if (held_.msg != nullptr) {
      void* msg = held_.msg;
      const int dst = held_.dst;
      held_ = Held{};
      PushTimed(dst, msg, NowUs());
      continue;
    }
    // Same for a flip-held message whose partner delivery never came:
    // release it un-flipped (flip_applied_ stays false -> unreplayable).
    if (flip_held_.msg != nullptr) {
      void* msg = flip_held_.msg;
      const int dst = flip_held_.dst;
      flip_held_ = Held{};
      flip_done_ = true;
      PushTimed(dst, msg, NowUs());
      continue;
    }

    // Global quiescence: nothing can ever happen again on its own.
    HashEvent(Event::kQuiesce, 0, 0, 0);
    quiesced_ = true;
    if (!cfg_.exit_on_quiescence) {
      DeadlockAbortLocked(
          lk, "global quiescence (all PEs blocked, nothing in flight)");
      return;
    }
    for (int i = 0; i < npes_; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      if (s.state == PeRunState::kDone) continue;
      m_.Pe(i).exit_requested = true;
      if (s.state == PeRunState::kBlocked) s.state = PeRunState::kReady;
    }
    // Loop: the freshly readied PEs are candidates now.
  }
}

void SimCoordinator::PeStart(PeState& pe) {
  std::unique_lock lk(mu_);
  Slot& sp = slots_[static_cast<std::size_t>(pe.mype)];
  sp.state = PeRunState::kReady;
  ++registered_;
  if (registered_ == npes_) ScheduleNextLocked(lk);
  while (sp.state != PeRunState::kRunning) {
    if (abort_mode_) throw MachineAborted{};
    sp.cv.wait(lk);
  }
}

void SimCoordinator::PeFinish(PeState& pe) {
  std::unique_lock lk(mu_);
  Slot& sp = slots_[static_cast<std::size_t>(pe.mype)];
  if (sp.state == PeRunState::kDone) return;
  sp.state = PeRunState::kDone;
  if (!abort_mode_) ScheduleNextLocked(lk);
}

void SimCoordinator::YieldPoint(PeState& pe) {
  std::unique_lock lk(mu_);
  Slot& sp = slots_[static_cast<std::size_t>(pe.mype)];
  // Only the baton holder may yield; teardown paths (fini hooks) and abort
  // unwinding reach scheduling points after the PE already released it.
  if (abort_mode_ || sp.state != PeRunState::kRunning) return;
  sp.state = PeRunState::kReady;
  ScheduleNextLocked(lk);
  while (sp.state != PeRunState::kRunning) {
    if (abort_mode_) return;  // silent: may be inside a fiber
    sp.cv.wait(lk);
  }
}

void SimCoordinator::BlockForNet(PeState& pe) {
  std::unique_lock lk(mu_);
  Slot& sp = slots_[static_cast<std::size_t>(pe.mype)];
  if (sp.state == PeRunState::kDone) return;  // defensive (teardown paths)
  for (;;) {
    if (abort_mode_) throw MachineAborted{};
    if (Deliverable(pe)) {
      sp.events_at_exit_return = kNeverReturned;
      return;
    }
    if (pe.exit_requested) {
      // Woken only by the quiescence exit.  If the PE blocks again without
      // a single event in between, it is spinning on a receive that can
      // never complete (e.g. CmiGetSpecificMsg with no possible sender).
      if (sp.events_at_exit_return == events_) {
        DeadlockAbortLocked(
            lk, "PE " + std::to_string(pe.mype) +
                    " still waits for a message after the quiescence exit "
                    "with nothing in flight");
        throw MachineAborted{};
      }
      sp.events_at_exit_return = events_;
      return;
    }
    sp.state = PeRunState::kBlocked;
    ScheduleNextLocked(lk);
    while (sp.state != PeRunState::kRunning && !abort_mode_) sp.cv.wait(lk);
  }
}

void SimCoordinator::Send(PeState& src, int dest_pe, void* msg,
                          double extra_delay_us) {
  MsgHeader* h = Header(msg);
  const std::size_t payload = CmiMsgPayloadSize(msg);
  std::unique_lock lk(mu_);
  HashEvent(Event::kSend,
            (static_cast<std::uint64_t>(src.mype) << 32) |
                static_cast<std::uint32_t>(dest_pe),
            h->handler,
            (static_cast<std::uint64_t>(h->seq) << 32) | payload);

  if ((h->flags & kMsgFlagFrame) != 0) {
    CstFrameWire wire;
    std::memcpy(&wire, static_cast<const char*>(msg) + sizeof(MsgHeader),
                sizeof(wire));
    ++agg_frames_;
    agg_batched_ += wire.count;
  }

  // CciRace replay flip: hold the targeted wire message back at its send
  // until its partner has been delivered (see SimFlip).  Checked before the
  // fault draws so it never perturbs the fault RNG stream (replay runs
  // disable faults anyway).
  if (cfg_.flip.enabled && !flip_done_ && flip_held_.msg == nullptr &&
      src.mype == cfg_.flip.hold_src && h->seq == cfg_.flip.hold_seq) {
    HashEvent(Event::kHold, static_cast<std::uint64_t>(dest_pe), h->handler,
              h->seq);
    flip_held_ = Held{msg, src.mype, dest_pe};
    return;
  }

  // Fault draws.  Each dimension draws only when enabled, so the schedule
  // stream is unperturbed by dimensions that are off.  Self-sends never
  // cross a network — no real machine can lose a message a PE hands to
  // itself — so they are exempt: this is what makes delayed self-sends
  // (the service runtime's timers) reliable under fault injection.
  const SimFaults& f = cfg_.faults;
  const bool faultable = dest_pe != src.mype;
  bool drop = false, dup = false, hold = false;
  double extra_us = 0.0;
  if (faultable && f.Any() && faults_injected_ < f.max_faults) {
    if (f.drop > 0 && rng_.NextDouble() < f.drop) drop = true;
    if (!drop && f.dup > 0 && rng_.NextDouble() < f.dup) dup = true;
    if (!drop && f.delay > 0 && rng_.NextDouble() < f.delay) {
      extra_us = rng_.NextDouble() * f.delay_max_us;
    }
    if (!drop && held_.msg == nullptr && f.reorder > 0 &&
        rng_.NextDouble() < f.reorder) {
      hold = true;
      ++reordered_;
      ++faults_injected_;
    }
  }
  bool planted_hold = false;
  if (cfg_.plant_reorder_bug && !drop && !hold && held_.msg == nullptr) {
    // The planted ordering bug: silently break per-sender FIFO with the
    // same hold-back mechanism, but without accounting it as a fault.
    hold = true;
    planted_hold = true;
  }

  if (drop) {
    // Dropping an aggregation frame or broadcast carrier loses every
    // logical message it carries; weight the counter so conservation
    // oracles balance (delivered == sent - dropped + duplicated).
    dropped_ += CstMessageWeight(m_, dest_pe, msg);
    ++faults_injected_;
    HashEvent(Event::kDrop, static_cast<std::uint64_t>(dest_pe), h->handler,
              h->seq);
    lk.unlock();
    check::OnReclaim(msg);  // the "network" eats the buffer
    CmiFree(msg);
    return;
  }
  if (hold) {
    if (!planted_hold) {
      HashEvent(Event::kHold, static_cast<std::uint64_t>(dest_pe),
                h->handler, h->seq);
    }
    held_ = Held{msg, src.mype, dest_pe};
    return;
  }

  if (extra_us > 0) {
    ++delayed_;
    ++faults_injected_;
  }
  // Self-sends pay no modeled network cost (same rationale as the fault
  // exemption above): a delayed self-send is then an exact virtual timer.
  const double latency = faultable && m_.has_model()
                             ? m_.model().OnewayUs(payload)
                             : 0.0;
  const double arrive = NowUs() + latency + extra_us + extra_delay_us;

  void* clone = nullptr;
  if (dup) {
    if ((h->flags & kMsgFlagSbcast) != 0) {
      // A shared-broadcast block must not be cloned: its embedded view's
      // back-pointer (stamped at the root) would still point at the
      // original, and its refcount is the identity being shared.  Duplicate
      // the *reference* instead — both lane entries release one ref each.
      auto* wire = reinterpret_cast<CstSbcastWire*>(
          static_cast<char*>(msg) + sizeof(MsgHeader));
      __atomic_add_fetch(&wire->refs, 1, __ATOMIC_RELAXED);
      clone = msg;
    } else {
      clone = CloneMessage(msg);  // keeps handler/source/seq of the original
      check::OnSend(clone);
    }
    duplicated_ += CstMessageWeight(m_, dest_pe, msg);  // weighted, see drop
    ++faults_injected_;
    HashEvent(Event::kDup, static_cast<std::uint64_t>(dest_pe), h->handler,
              h->seq);
  }
  PushTimed(dest_pe, msg, arrive);
  if (clone != nullptr) PushTimed(dest_pe, clone, arrive);

  // Release a held-back message from the same (src, dst) pair *after* this
  // one: same arrival time, later tie-break seq — a guaranteed inversion.
  if (held_.msg != nullptr && held_.src == src.mype &&
      held_.dst == dest_pe) {
    void* hm = held_.msg;
    held_ = Held{};
    PushTimed(dest_pe, hm, arrive);
  }
}

void SimCoordinator::RecordImmediateSend(PeState& src, int dest_pe,
                                         const void* msg) {
  const MsgHeader* h = Header(const_cast<void*>(msg));
  std::scoped_lock lk(mu_);
  HashEvent(Event::kImmediateSend,
            (static_cast<std::uint64_t>(src.mype) << 32) |
                static_cast<std::uint32_t>(dest_pe),
            h->handler, h->seq);
}

void SimCoordinator::RecordUser(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) {
  std::scoped_lock lk(mu_);
  HashEvent(Event::kUser, a, b, c);
}

void SimTraceUser(PeState& pe, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  if (SimCoordinator* sim = pe.machine->sim()) sim->RecordUser(a, b, c);
}

void SimCoordinator::RecordDeliver(PeState& pe, const void* msg) {
  const MsgHeader* h = Header(const_cast<void*>(msg));
  // Outcome digest fields, computed before taking mu_: payload bytes only
  // (headers carry per-sender seqs, which a flipped schedule reassigns).
  const std::size_t payload = CmiMsgPayloadSize(msg);
  const std::uint32_t crc = util::Crc32c(CmiMsgPayload(msg), payload);
  // The wire identity whose delivery releases a pending flip: for a view
  // into an aggregation frame that is the carrier (the view's release
  // back-pointer sits 8 bytes before the header), else the header's own.
  int wire_src = h->source_pe;
  std::uint32_t wire_seq = h->seq;
  if ((h->flags & kMsgFlagInFrame) != 0) {
    void* frame = nullptr;
    std::memcpy(&frame, static_cast<const char*>(msg) - 8, sizeof(frame));
    wire_src = Header(frame)->source_pe;
    wire_seq = Header(frame)->seq;
  }

  std::scoped_lock lk(mu_);
  HashEvent(Event::kDeliver, static_cast<std::uint64_t>(pe.mype), h->handler,
            (static_cast<std::uint64_t>(h->source_pe) << 32) | h->seq);
  // Commutative (wrapping) sum over a per-delivery FNV-1a hash: equal
  // multisets of deliveries produce equal digests regardless of order.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t d = 1469598103934665603ull;
  for (std::uint64_t w : {static_cast<std::uint64_t>(pe.mype),
                          static_cast<std::uint64_t>(h->handler),
                          (static_cast<std::uint64_t>(payload) << 32) | crc}) {
    for (int i = 0; i < 8; ++i) {
      d = (d ^ (w & 0xffu)) * kPrime;
      w >>= 8;
    }
  }
  outcome_ += d;

  if (flip_held_.msg != nullptr && wire_src == cfg_.flip.until_src &&
      wire_seq == cfg_.flip.until_seq) {
    // The partner delivery happened: release the held message now, strictly
    // after it — the pair's order is inverted relative to the baseline.
    void* hm = flip_held_.msg;
    const int dst = flip_held_.dst;
    flip_held_ = Held{};
    flip_done_ = true;
    flip_applied_ = true;
    PushTimed(dst, hm, NowUs());
  }
}

void SimCoordinator::OnAbort() {
  std::scoped_lock lk(mu_);
  abort_mode_ = true;
  WakeAllPesLocked();
}

void SimCoordinator::FillReport() {
  std::scoped_lock lk(mu_);
  if (cfg_.report == nullptr) return;
  SimReport& r = *cfg_.report;
  r.trace_hash = hash_;
  r.events = events_;
  r.context_switches = context_switches_;
  r.msgs_dropped = dropped_;
  r.msgs_duplicated = duplicated_;
  r.msgs_delayed = delayed_;
  r.msgs_reordered = reordered_;
  r.faults_injected = faults_injected_;
  r.agg_frames = agg_frames_;
  r.agg_msgs_batched = agg_batched_;
  r.final_virtual_us = NowUs();
  r.quiesced = quiesced_;
  r.outcome_hash = outcome_;
  r.flip_applied = flip_applied_;
}

void* SimCoordinator::TakeHeldMessage() {
  std::scoped_lock lk(mu_);
  void* msg = held_.msg;
  held_ = Held{};
  if (msg == nullptr) {
    msg = flip_held_.msg;
    flip_held_ = Held{};
  }
  return msg;
}

void SimYieldHere() {
  PeState* pe = Cpv();
  if (pe == nullptr) return;
  if (SimCoordinator* sim = pe->machine->sim()) sim->YieldPoint(*pe);
}

}  // namespace converse::detail

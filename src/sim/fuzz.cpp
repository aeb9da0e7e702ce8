// Property-based fuzz workload for the deterministic simulator (the
// converse::sim public API of converse/sim.h).
//
// One RunFuzzCase spins up a simulated machine and drives a randomized
// handler graph on it: every PE injects root actions (unicasts with TTL
// fan-out, broadcasts, immediate messages, priority-queue enqueues, Cmm
// put/probe/get, Cth thread wakeups), handlers recursively generate more
// traffic, and the run ends at the simulator's global-quiescence exit.  All
// workload randomness comes from per-PE PRNG streams derived from the case
// seed, and the simulator serializes PEs deterministically — so a case is a
// pure function of its FuzzParams, which is what makes seed replay and
// shrinking work.
//
// Oracles (checked during the run and after teardown):
//  * conservation — every regular message sent is delivered exactly once,
//    corrected by the injector's exact drop/duplicate counts;
//  * per-sender FIFO per destination, whenever no enabled fault dimension
//    (dup/delay/reorder) may legally break it — this is the oracle that
//    catches SimConfig::plant_reorder_bug;
//  * immediate-lane and local-enqueue conservation (never faulted);
//  * Cmm retrievals match a naive reference mailbox;
//  * the run ends by quiescence (no stuck PE — a deadlock aborts and is
//    reported as the failure).
#include "converse/sim.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "converse/cmi.h"
#include "converse/cmm.h"
#include "converse/csd.h"
#include "converse/cth.h"
#include "converse/fuzz.h"
#include "converse/machine.h"
#include "converse/msg.h"
#include "converse/race.h"
#include "converse/stream.h"
#include "converse/util/rng.h"
#include "core/pe_state.h"

namespace converse::sim {
namespace {

enum WireKind : std::uint32_t {
  kData = 1,   // regular unicast (faultable)
  kBcast = 2,  // regular broadcast copy (faultable)
  kLocal = 3,  // scheduler-queue message, never touches the network
};

struct WireMsg {
  std::uint32_t kind;
  std::uint32_t src;     // sending PE
  std::uint32_t stream;  // per-sender sequence in its kind's stream
  std::uint32_t ttl;     // remaining fan-out depth
};

struct ThreadSlot {
  CthThread* t = nullptr;
  bool wake_pending = false;  // a resume message is in the scheduler queue
  bool exited = false;
};

struct PerPe {
  util::Xoshiro256 rng{0};
  bool shutdown = false;

  // Send-side accounting (every counter is owned by this PE's thread; the
  // simulator serializes PEs, and RunFuzzCase aggregates after join).
  std::vector<std::uint32_t> next_uni;  // per destination
  std::uint32_t next_bcast = 0;
  std::uint64_t sent_net = 0;  // expected deliveries from my regular sends
  std::uint64_t sent_imm = 0;
  std::uint64_t local_enq = 0;

  // Receive-side accounting and FIFO oracles.
  std::vector<std::uint32_t> expect_uni;    // per source
  std::vector<std::uint32_t> expect_bcast;  // per source
  std::uint64_t recv_net = 0;
  std::uint64_t recv_imm = 0;
  std::uint64_t local_run = 0;

  std::vector<ThreadSlot> threads;

  // Cmm against a naive reference mailbox.
  MSG_MNGR* mm = nullptr;
  struct RefMsg {
    int tag1, tag2;
    std::uint32_t value;
  };
  std::deque<RefMsg> cmm_ref;
};

struct Ctx {
  FuzzParams p;
  bool fifo_check = false;   // no enabled fault may reorder
  bool exact_streams = false;  // additionally no drops: seqs contiguous
  std::vector<std::unique_ptr<PerPe>> pes;

  std::mutex fail_mu;
  std::string failure;

  void Fail(const std::string& what) {
    std::scoped_lock lk(fail_mu);
    if (failure.empty()) failure = what;
  }
};

util::Xoshiro256 PeStream(std::uint64_t seed, int pe) {
  util::SplitMix64 sm(seed);
  std::uint64_t s = 0;
  for (int i = 0; i <= pe + 1; ++i) s = sm.Next();
  return util::Xoshiro256(s);
}

void* MakeWire(int handler, WireKind kind, int src, std::uint32_t stream,
               std::uint32_t ttl, std::size_t extra_bytes) {
  void* msg = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                       sizeof(WireMsg) + extra_bytes);
  CmiSetHandler(msg, handler);
  auto* w = static_cast<WireMsg*>(CmiMsgPayload(msg));
  w->kind = kind;
  w->src = static_cast<std::uint32_t>(src);
  w->stream = stream;
  w->ttl = ttl;
  std::memset(w + 1, static_cast<int>(stream & 0xff), extra_bytes);
  return msg;
}

/// Random extra payload size: mostly small, occasionally multi-KB so the
/// size axis is exercised too.
std::size_t DrawExtra(PerPe& me) {
  if (me.rng.Below(32) == 0) return 1024 + me.rng.Below(4096);
  return me.rng.Below(160);
}

void SendData(Ctx& ctx, PerPe& me, int mype, int h_data, std::uint32_t ttl) {
  const int dest = static_cast<int>(me.rng.Below(
      static_cast<std::uint64_t>(ctx.p.npes)));
  void* msg = MakeWire(h_data, kData, mype,
                       me.next_uni[static_cast<std::size_t>(dest)]++, ttl,
                       DrawExtra(me));
  ++me.sent_net;
  CmiSyncSendAndFree(static_cast<unsigned>(dest),
                     static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

void SendBroadcast(Ctx& ctx, PerPe& me, int mype, int h_data) {
  void* msg = MakeWire(h_data, kBcast, mype, me.next_bcast++, 0, DrawExtra(me));
  me.sent_net += static_cast<std::uint64_t>(ctx.p.npes);
  CmiSyncBroadcastAllAndFree(static_cast<unsigned>(CmiMsgTotalSize(msg)),
                             msg);
}

/// Aggregation stressor: a burst of small unicasts to one destination, the
/// traffic shape the Cst layer batches into frames.  Stream accounting is
/// identical to SendData, so every oracle applies unchanged.
void SendBurst(Ctx& ctx, PerPe& me, int mype, int h_data) {
  const int dest = static_cast<int>(me.rng.Below(
      static_cast<std::uint64_t>(ctx.p.npes)));
  const std::uint64_t burst = 4 + me.rng.Below(12);
  for (std::uint64_t i = 0; i < burst; ++i) {
    void* msg = MakeWire(h_data, kData, mype,
                         me.next_uni[static_cast<std::size_t>(dest)]++, 0,
                         me.rng.Below(96));
    ++me.sent_net;
    CmiSyncSendAndFree(static_cast<unsigned>(dest),
                       static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
  }
}

void SendImmediate(Ctx& ctx, PerPe& me, int mype, int h_imm) {
  const int dest = static_cast<int>(me.rng.Below(
      static_cast<std::uint64_t>(ctx.p.npes)));
  void* msg = MakeWire(h_imm, kData, mype, 0, 0, me.rng.Below(32));
  ++me.sent_imm;
  CmiSyncSendImmediateAndFree(static_cast<unsigned>(dest),
                              static_cast<unsigned>(CmiMsgTotalSize(msg)),
                              msg);
}

void EnqueueLocal(PerPe& me, int mype, int h_local, std::uint32_t ttl) {
  // A fresh allocation, not a delivered buffer: the receiving handler owns
  // and frees it (queue-delivery ownership rule).
  void* fresh = MakeWire(h_local, kLocal, mype, 0, ttl, me.rng.Below(48));
  ++me.local_enq;
  if (me.rng.Below(2) == 0) {
    CsdEnqueue(fresh);
  } else {
    const auto prio = static_cast<std::int32_t>(me.rng.Below(17)) - 8;
    CsdEnqueueIntPrio(fresh, prio, me.rng.Below(4) == 0);
  }
}

void WakeSomeThread(PerPe& me) {
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < me.threads.size(); ++i) {
    ThreadSlot& th = me.threads[i];
    if (!th.exited && !th.wake_pending) cand.push_back(i);
  }
  if (cand.empty()) return;
  ThreadSlot& th = me.threads[cand[static_cast<std::size_t>(
      me.rng.Below(cand.size()))]];
  th.wake_pending = true;
  CthAwaken(th.t);
}

void CmmOp(Ctx& ctx, PerPe& me) {
  const int t1 = static_cast<int>(me.rng.Below(5));
  const int t2 = static_cast<int>(me.rng.Below(3));
  if (me.rng.Below(2) == 0 || me.cmm_ref.empty()) {  // put
    const auto value = static_cast<std::uint32_t>(me.rng.Next());
    CmmPut2(me.mm, &value, t1, t2, static_cast<int>(sizeof(value)));
    me.cmm_ref.push_back(PerPe::RefMsg{t1, t2, value});
    return;
  }
  // get with random wildcards, against the reference mailbox
  const int w1 = me.rng.Below(2) != 0 ? t1 : CmmWildCard;
  const int w2 = me.rng.Below(2) != 0 ? t2 : CmmWildCard;
  std::uint32_t got_value = 0;
  int r1 = -7, r2 = -7;
  const int got = CmmGet2(me.mm, &got_value, w1, w2,
                          static_cast<int>(sizeof(got_value)), &r1, &r2);
  auto it = me.cmm_ref.begin();
  for (; it != me.cmm_ref.end(); ++it) {
    if ((w1 == CmmWildCard || w1 == it->tag1) &&
        (w2 == CmmWildCard || w2 == it->tag2)) {
      break;
    }
  }
  if (it == me.cmm_ref.end()) {
    if (got != -1) ctx.Fail("cmm: Get2 matched but reference mailbox has no match");
    return;
  }
  if (got != static_cast<int>(sizeof(got_value)) || got_value != it->value ||
      r1 != it->tag1 || r2 != it->tag2) {
    ctx.Fail("cmm: Get2 returned a different message than the reference mailbox");
  }
  me.cmm_ref.erase(it);
}

/// One random action from handler/root/thread context.
void RandomAction(Ctx& ctx, PerPe& me, int mype, int h_data, int h_imm,
                  int h_local, std::uint32_t ttl_budget) {
  // Aggregated runs widen the draw by two actions (burst, explicit flush);
  // non-aggregated runs keep the original Below(10) stream so existing
  // seeds replay bit-for-bit.
  const std::uint64_t pick = me.rng.Below(ctx.p.aggregate ? 12 : 10);
  if (pick == 10) {
    SendBurst(ctx, me, mype, h_data);
    return;
  }
  if (pick == 11) {
    CmiFlush();
    return;
  }
  switch (pick) {
    case 0:
    case 1:
    case 2:
    case 3:
      SendData(ctx, me, mype, h_data,
               static_cast<std::uint32_t>(me.rng.Below(ttl_budget + 1)));
      break;
    case 4:
      SendBroadcast(ctx, me, mype, h_data);
      break;
    case 5:
      SendImmediate(ctx, me, mype, h_imm);
      break;
    case 6:
      EnqueueLocal(me, mype, h_local,
                   static_cast<std::uint32_t>(me.rng.Below(2)));
      break;
    case 7:
      WakeSomeThread(me);
      break;
    default:
      CmmOp(ctx, me);
      break;
  }
}

/// Validate one received regular message against the per-sender stream
/// oracles; returns false (and records the failure) on violation.
void CheckStream(Ctx& ctx, PerPe& me, int mype, const WireMsg& w) {
  std::vector<std::uint32_t>& expect =
      w.kind == kBcast ? me.expect_bcast : me.expect_uni;
  std::uint32_t& next = expect[w.src];
  if (!ctx.fifo_check) {
    // dup/delay/reorder faults make any order legal; conservation is
    // checked globally after the run.
    return;
  }
  char buf[160];
  if (ctx.exact_streams) {
    if (w.stream != next) {
      std::snprintf(buf, sizeof(buf),
                    "per-sender FIFO violated: PE %d got %s stream %u from "
                    "PE %u, expected %u",
                    mype, w.kind == kBcast ? "bcast" : "unicast", w.stream,
                    w.src, next);
      ctx.Fail(buf);
      return;
    }
    next = w.stream + 1;
    return;
  }
  // Drops enabled: gaps are fine, going backwards (or repeating) is not.
  if (w.stream < next) {
    std::snprintf(buf, sizeof(buf),
                  "per-sender order violated: PE %d got %s stream %u from "
                  "PE %u after already seeing %u",
                  mype, w.kind == kBcast ? "bcast" : "unicast", w.stream,
                  w.src, next);
    ctx.Fail(buf);
    return;
  }
  next = w.stream + 1;
}

void PeEntry(Ctx& ctx, int mype) {
  PerPe& me = *ctx.pes[static_cast<std::size_t>(mype)];
  me.rng = PeStream(ctx.p.seed, mype);
  me.next_uni.assign(static_cast<std::size_t>(ctx.p.npes), 0);
  me.expect_uni.assign(static_cast<std::size_t>(ctx.p.npes), 0);
  me.expect_bcast.assign(static_cast<std::size_t>(ctx.p.npes), 0);
  me.mm = CmmNew();

  // Handler registration order is identical on every PE, so ids agree.
  int h_data = -1, h_imm = -1, h_local = -1;
  h_data = CmiRegisterHandler([&ctx, &me, mype, &h_data, &h_imm,
                               &h_local](void* msg) {
    WireMsg w;  // copy out: the buffer may be grabbed and freed below
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    ++me.recv_net;
    CheckStream(ctx, me, mype, w);
    if (me.rng.Below(8) == 0) {
      // Exercise the buffer-ownership protocol: take the system buffer and
      // release it ourselves.
      CmiGrabBuffer(&msg);
      CmiFree(msg);
    }
    if (w.ttl > 0) {
      const std::uint64_t fanout = 1 + me.rng.Below(2);
      for (std::uint64_t i = 0; i < fanout; ++i) {
        SendData(ctx, me, mype, h_data, w.ttl - 1);
      }
    }
    if (me.rng.Below(8) == 0) WakeSomeThread(me);
    if (me.rng.Below(6) == 0) CmmOp(ctx, me);
    if (me.rng.Below(8) == 0) {
      EnqueueLocal(me, mype, h_local, 0);
    }
  });
  h_imm = CmiRegisterHandler([&me](void*) { ++me.recv_imm; });
  h_local = CmiRegisterHandler([&ctx, &me, mype, &h_data](void* msg) {
    // Scheduler-queue delivery: the handler owns the buffer.
    WireMsg w;
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    ++me.local_run;
    if (w.ttl > 0) SendData(ctx, me, mype, h_data, 0);
    CmiFree(msg);
  });

  // Worker threads: each does a little traffic, then suspends until a
  // handler (or the drain loop) wakes it.
  me.threads.resize(static_cast<std::size_t>(ctx.p.threads));
  for (int t = 0; t < ctx.p.threads; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    me.threads[ti].t = CthCreate([&ctx, &me, mype, ti, &h_data, &h_imm,
                                  &h_local] {
      ThreadSlot& self = me.threads[ti];
      self.wake_pending = false;
      while (!me.shutdown) {
        RandomAction(ctx, me, mype, h_data, h_imm, h_local, 1);
        self.wake_pending = false;  // consume the wake that resumed us
        CthSuspend();
      }
      self.exited = true;
    });
  }

  // Root actions, then run to global quiescence.
  for (int i = 0; i < ctx.p.actions; ++i) {
    RandomAction(ctx, me, mype, h_data, h_imm, h_local, 2);
    detail::SimYieldHere();  // let injections from different PEs interleave
  }
  CsdScheduler(-1);

  // Drain: wake every remaining thread so it observes shutdown and exits
  // (local resumes only — nothing here can disturb quiescence elsewhere).
  me.shutdown = true;
  for (;;) {
    bool all_exited = true;
    for (ThreadSlot& th : me.threads) {
      if (th.exited) continue;
      all_exited = false;
      if (!th.wake_pending) {
        th.wake_pending = true;
        CthAwaken(th.t);
      }
    }
    if (all_exited) break;
    CsdScheduleUntilIdle();
  }
  if (CmmLength(me.mm) != me.cmm_ref.size()) {
    ctx.Fail("cmm: mailbox length diverged from reference");
  }
  CmmFree(me.mm);
  me.mm = nullptr;
}

}  // namespace

FuzzResult RunFuzzCase(const FuzzParams& params) {
  FuzzResult res;
  Ctx ctx;
  ctx.p = params;
  ctx.fifo_check = params.faults.dup == 0 && params.faults.delay == 0 &&
                   params.faults.reorder == 0;
  ctx.exact_streams = ctx.fifo_check && params.faults.drop == 0;
  for (int i = 0; i < params.npes; ++i) {
    ctx.pes.push_back(std::make_unique<PerPe>());
  }

  SimConfig sim;
  sim.seed = params.seed;
  sim.faults = params.faults;
  sim.plant_reorder_bug = params.plant_reorder_bug;
  sim.report = &res.report;
  MachineConfig cfg;
  cfg.npes = params.npes;
  cfg.seed = params.seed;
  cfg.sim = &sim;
  // Always explicit (never the -1 env default): a CONVERSE_AGG in the
  // environment must not silently change what a seed replays.
  cfg.aggregate_sends = params.aggregate ? 1 : 0;
  try {
    RunConverse(cfg, [&ctx](int pe, int) { PeEntry(ctx, pe); });
  } catch (const std::exception& e) {
    res.ok = false;
    res.failure = std::string("machine aborted: ") + e.what();
    return res;
  }

  if (ctx.failure.empty() && !res.report.quiesced) {
    ctx.Fail("run did not end by global quiescence");
  }
  std::uint64_t sent_net = 0, recv_net = 0, sent_imm = 0, recv_imm = 0;
  std::uint64_t local_enq = 0, local_run = 0;
  for (const auto& pe : ctx.pes) {
    sent_net += pe->sent_net;
    recv_net += pe->recv_net;
    sent_imm += pe->sent_imm;
    recv_imm += pe->recv_imm;
    local_enq += pe->local_enq;
    local_run += pe->local_run;
  }
  const std::uint64_t expected =
      sent_net - res.report.msgs_dropped + res.report.msgs_duplicated;
  if (ctx.failure.empty() && recv_net != expected) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "conservation violated: sent %llu regular messages, "
                  "%llu dropped + %llu duplicated by injection, but %llu "
                  "delivered (expected %llu)",
                  static_cast<unsigned long long>(sent_net),
                  static_cast<unsigned long long>(res.report.msgs_dropped),
                  static_cast<unsigned long long>(res.report.msgs_duplicated),
                  static_cast<unsigned long long>(recv_net),
                  static_cast<unsigned long long>(expected));
    ctx.Fail(buf);
  }
  if (ctx.failure.empty() && recv_imm != sent_imm) {
    ctx.Fail("immediate-lane conservation violated (the injector must never "
             "touch immediate messages)");
  }
  if (ctx.failure.empty() && local_run != local_enq) {
    ctx.Fail("scheduler-queue conservation violated (local enqueues lost)");
  }
  res.failure = ctx.failure;
  res.ok = res.failure.empty();
  return res;
}

const fuzz::Workload<FuzzParams, FuzzResult>& FuzzWorkload() {
  using P = FuzzParams;
  using fuzz::At;
  using enum fuzz::Shrink;
  using enum fuzz::Print;
  static const fuzz::Workload<P, FuzzResult> w{
      .mode = nullptr,
      .seed_env = true,
      .run = RunFuzzCase,
      .print_ok =
          [](const P&, const FuzzResult& r) {
            const SimReport& s = r.report;
            std::printf(
                "%llu events, %llu switches, virtual time %.0f us, faults: "
                "%llu dropped, %llu duplicated, %llu delayed, %llu "
                "reordered, agg: %llu frames / %llu batched",
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.context_switches),
                s.final_virtual_us,
                static_cast<unsigned long long>(s.msgs_dropped),
                static_cast<unsigned long long>(s.msgs_duplicated),
                static_cast<unsigned long long>(s.msgs_delayed),
                static_cast<unsigned long long>(s.msgs_reordered),
                static_cast<unsigned long long>(s.agg_frames),
                static_cast<unsigned long long>(s.agg_msgs_batched));
          },
      .budget = 64,
      .fields = {
          {.flag = "--pes", .at = At<&P::npes>, .shrink = kHalve, .step = 2,
           .floor = 1, .lo = 1},
          {.flag = "--actions", .at = At<&P::actions>, .shrink = kHalve,
           .step = 0, .floor = 1},
          {.flag = "--threads", .at = At<&P::threads>, .shrink = kHalve,
           .step = 1},
          {.flag = "--drop", .at = At<&P::faults, &SimFaults::drop>,
           .shrink = kFloor, .step = 4, .print = kIfSet, .hi = 1},
          {.flag = "--dup", .at = At<&P::faults, &SimFaults::dup>,
           .shrink = kFloor, .step = 5, .print = kIfSet, .hi = 1},
          {.flag = "--delay", .at = At<&P::faults, &SimFaults::delay>,
           .shrink = kFloor, .step = 6, .print = kIfSet, .hi = 1},
          {.flag = "--reorder", .at = At<&P::faults, &SimFaults::reorder>,
           .shrink = kFloor, .step = 7, .print = kIfSet, .hi = 1},
          {.flag = "--plant-bug", .at = At<&P::plant_reorder_bug>,
           .print = kIfSet, .sets = 1},
          {.flag = "--agg", .at = At<&P::aggregate>, .shrink = kFloor,
           .step = 3, .print = kIfSet, .sets = 1},
      }};
  return w;
}

// ---------------------------------------------------------------------------
// CciRace fuzz workload (simfuzz --race).
//
// The workload is built so the expected report set is exactly computable:
//  * `chains` independent token chains hop across PEs; every hop handler
//    updates its chain's registered cell and then sends the next hop, so
//    all accesses to one chain cell are totally ordered by happens-before.
//    A sound detector must stay silent — any candidate is a false positive.
//  * plant 1 injects two causally unordered handlers doing an
//    order-sensitive update of a shared cell and echoing the observed
//    value to PE 0: flipping their delivery order changes the echoed
//    payload, so the pair must classify confirmed-divergent.
//  * plant 2 injects two unordered commutative increments with no echo:
//    the candidate must classify benign-commutative.
//
// All routing comes from pure hashes of (seed, chain, hop) — the workload
// draws nothing from the simulator's RNG, so existing fuzz seeds replay
// unchanged.  Aggregation alternates with seed parity to cover the
// frame-carried clock path.
// ---------------------------------------------------------------------------

namespace {

struct RaceHopWire {
  std::uint32_t chain;
  std::uint32_t hop;
};

struct RacePlantWire {
  std::uint32_t writer;  // 1 or 2: distinguishes the two planted updates
  std::uint32_t mode;    // RaceFuzzParams::plant (1 divergent, 2 benign)
};

struct RaceWorkCtx {
  RaceFuzzParams p;
  std::vector<std::uint64_t> chain_cell;
  std::uint64_t plant_cell = 0;

  void Reset() {
    chain_cell.assign(static_cast<std::size_t>(p.chains), 0);
    plant_cell = 0;
  }
};

int RouteHop(const RaceFuzzParams& p, int chain, int hop) {
  util::SplitMix64 sm(p.seed ^
                      (static_cast<std::uint64_t>(chain + 1) * 0x9e3779b9ull) ^
                      (static_cast<std::uint64_t>(hop + 1) * 0x85ebca6bull));
  return static_cast<int>(sm.Next() % static_cast<std::uint64_t>(p.npes));
}

void SendRaceWire(int dest, int handler, const void* wire, std::size_t n) {
  void* msg =
      CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) + n);
  CmiSetHandler(msg, handler);
  std::memcpy(CmiMsgPayload(msg), wire, n);
  CmiSyncSendAndFree(static_cast<unsigned>(dest),
                     static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

void RacePeEntry(RaceWorkCtx& ctx, int mype) {
  // Registration order is identical on every PE, so handler ids agree.
  int h_chain = -1, h_plant = -1, h_echo = -1;
  h_chain = CmiRegisterHandler([&ctx, &h_chain](void* msg) {
    RaceHopWire w;
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    std::uint64_t& cell = ctx.chain_cell[w.chain];
    CmiRaceNoteWrite(&cell, sizeof(cell));
    cell = cell * 31 + w.hop;
    const int next_hop = static_cast<int>(w.hop) + 1;
    if (next_hop < ctx.p.hops) {
      RaceHopWire next{w.chain, static_cast<std::uint32_t>(next_hop)};
      SendRaceWire(RouteHop(ctx.p, static_cast<int>(w.chain), next_hop),
                   h_chain, &next, sizeof(next));
    }
  });
  h_plant = CmiRegisterHandler([&ctx, &h_echo](void* msg) {
    RacePlantWire w;
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    CmiRaceNoteWrite(&ctx.plant_cell, sizeof(ctx.plant_cell));
    if (w.mode == 1) {
      // Order-sensitive: the echoed value depends on which writer ran
      // first, so the flipped replay's outcome digest diverges.
      ctx.plant_cell = ctx.plant_cell * 31 + w.writer;
      const std::uint64_t echo = ctx.plant_cell;
      SendRaceWire(0, h_echo, &echo, sizeof(echo));
    } else {
      // Commutative: either order produces the same final state and the
      // same delivered payloads.
      ctx.plant_cell += 1;
    }
  });
  h_echo = CmiRegisterHandler([](void*) {
    // The echoed payload participates in the outcome digest by arriving;
    // nothing to do here.
  });

  if (mype == 0) {
    CciRaceRegisterNamed(ctx.chain_cell.data(),
                         ctx.chain_cell.size() * sizeof(std::uint64_t),
                         "race-fuzz chain cells");
    CciRaceRegisterNamed(&ctx.plant_cell, sizeof(ctx.plant_cell),
                         "race-fuzz plant cell");
    for (int c = 0; c < ctx.p.chains; ++c) {
      RaceHopWire w{static_cast<std::uint32_t>(c), 0};
      SendRaceWire(RouteHop(ctx.p, c, 0), h_chain, &w, sizeof(w));
    }
    if (ctx.p.plant != 0) {
      // Two sends from one context are causally unordered at the receiver
      // (the epoch splits after the first send), so the two plant handlers
      // race on plant_cell by construction.
      const int dest = ctx.p.npes > 1 ? 1 : 0;
      for (std::uint32_t writer = 1; writer <= 2; ++writer) {
        RacePlantWire w{writer, static_cast<std::uint32_t>(ctx.p.plant)};
        SendRaceWire(dest, h_plant, &w, sizeof(w));
        // Under aggregation the two plants would otherwise share one
        // frame — a single wire message whose internal order cannot be
        // flipped.  Flushing gives each its own carrier.
        CmiFlush();
      }
    }
  }
  CsdScheduler(-1);
}

}  // namespace

bool RaceFuzzAvailable() { return CciRaceEnabled(); }

RaceFuzzResult RunRaceFuzzCase(const RaceFuzzParams& params) {
  RaceFuzzResult res;
  if (!CciRaceEnabled()) {
    res.failure = "CciRace is compiled out (build with -DCONVERSE_RACE=ON)";
    return res;
  }
  RaceWorkCtx ctx;
  ctx.p = params;
  if (ctx.p.npes < 1) ctx.p.npes = 1;
  if (ctx.p.chains < 0) ctx.p.chains = 0;

  SimConfig sim;
  sim.seed = params.seed;
  MachineConfig cfg;
  cfg.npes = ctx.p.npes;
  cfg.seed = params.seed;
  cfg.sim = &sim;
  cfg.aggregate_sends = (params.seed % 2 == 0) ? 1 : 0;

  CciRaceOptions opts;
  opts.reset = [&ctx] { ctx.Reset(); };
  std::vector<CciRaceReport> reports;
  try {
    reports = CciRaceAnalyze(
        cfg, [&ctx](int pe, int) { RacePeEntry(ctx, pe); }, opts);
  } catch (const std::exception& e) {
    res.failure = std::string("machine aborted: ") + e.what();
    return res;
  }

  res.candidates = static_cast<int>(reports.size());
  for (const auto& r : reports) {
    switch (r.classification) {
      case CciRaceClass::kConfirmedDivergent: ++res.divergent; break;
      case CciRaceClass::kBenignCommutative: ++res.benign; break;
      case CciRaceClass::kUnreplayable: ++res.unreplayable; break;
      case CciRaceClass::kUnconfirmed: break;
    }
  }

  switch (params.plant) {
    case 0:
      if (res.candidates != 0) {
        res.failure = "false positive: candidate race reported for a "
                      "causally ordered workload";
      }
      break;
    case 1:
      if (res.divergent < 1) {
        res.failure = "planted order-sensitive race was not classified "
                      "confirmed-divergent";
      }
      break;
    case 2:
      if (res.benign < 1) {
        res.failure = "planted commutative pair was not classified "
                      "benign-commutative";
      } else if (res.divergent != 0) {
        res.failure = "planted commutative pair misclassified as divergent";
      }
      break;
    default:
      res.failure = "unknown plant mode";
      break;
  }
  res.ok = res.failure.empty();
  return res;
}

const fuzz::Workload<RaceFuzzParams, RaceFuzzResult>& RaceFuzzWorkload() {
  using P = RaceFuzzParams;
  using fuzz::At;
  using enum fuzz::Print;
  static const fuzz::Workload<P, RaceFuzzResult> w{
      .mode = "--race",
      .run = RunRaceFuzzCase,
      .print_ok =
          [](const P&, const RaceFuzzResult& r) {
            std::printf(
                "%d candidate(s): %d divergent, %d benign, %d unreplayable",
                r.candidates, r.divergent, r.benign, r.unreplayable);
          },
      .unavailable = RaceFuzzAvailable()
                         ? nullptr
                         : "--race needs the CciRace detector; rebuild with "
                           "-DCONVERSE_RACE=ON",
      .fields = {
          {.flag = "--pes", .at = At<&P::npes>, .lo = 1},
          {.flag = "--chains", .at = At<&P::chains>},
          {.flag = "--hops", .at = At<&P::hops>, .lo = 1},
          {.flag = "--plant-race", .at = At<&P::plant>, .print = kIfSet,
           .sets = 1},
          {.flag = "--plant-benign", .at = At<&P::plant>, .print = kIfSet,
           .sets = 2},
      }};
  return w;
}

}  // namespace converse::sim

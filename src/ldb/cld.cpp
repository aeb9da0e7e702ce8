// Seed load balancers (paper §3.3.1).
//
// A seed travels as a generalized message whose handler field is
// temporarily replaced by the balancer's own handler; the original handler
// rides in the header's reserved word together with a hop count, so no
// payload copy is ever made while a seed floats.  Under the four legacy
// strategies, when a seed takes root the original handler is restored and
// the message enters the scheduler queue (with its priority, if it had
// one).
//
// The two adaptive strategies (kSteal, kPeriodic) keep placed seeds in a
// per-PE stealable backlog (`CldState::store`) instead: a multimap keyed by
// integer priority, FIFO among equal keys, drained by a per-PE worker that
// executes the best seed next.  The worker is driven by self-sent tick
// messages rather than the scheduler queue, for two reasons: the backlog
// stays movable right up to execution (half of it can be packed into a
// steal reply or pushed by a rebalance pass), and on a timed machine the
// tick's delay carries the virtual cost a seed declared via CldChargeTime —
// which is what lets backlogs, steals, and makespans exist in virtual time
// on a host with any number of cores.
//
// Steal protocol (kSteal): a PE whose store and tick are both empty sends a
// steal request from the scheduler's idle hook — first to a victim drawn
// from a dedicated seeded PRNG, then cycling, so after npes-1 failures
// every peer has been probed.  A victim holding >= 2 stealable seeds packs
// half (priority-coldest first) into one reply message; a victim with
// fewer replies empty but remembers the thief as hungry and pushes half of
// its backlog to it as soon as the backlog regrows.  Every decision is
// folded into the sim's event-trace hash (detail::SimTraceUser), so the
// same sim seed replays the same placements bit-for-bit.
//
// Rebalance protocol (kPeriodic): on timed machines each PE with a backlog
// runs a virtual-clock timer (delayed self-send); every tick it publishes
// its store size to all peers (when it changed since the last publish) and,
// when above the resulting average, pushes its excess toward under-average
// peers.  Plain machines would lose the
// delay (delayed self-sends degrade to immediate), so they piggyback the
// same publish-and-push pass on every kRebalanceExecPeriod-th worker
// execution instead.
//
// The legacy strategies never touch any of the adaptive state: no store,
// no hooks firing, no extra messages, no atomics anywhere in this module.
#include "converse/cld.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <vector>

#include "converse/csd.h"
#include "converse/detail/module.h"
#include "converse/util/rng.h"
#include "core/pe_state.h"

namespace converse {
namespace {

constexpr std::uint8_t kMaxNeighborHops = 3;
constexpr int kStatusPeriod = 8;  // decisions between neighbor status sends
constexpr int kDrainPeriod = 8;   // placements between central drain reports

// Adaptive-strategy pacing knobs.
constexpr int kWorkerBatch = 16;  // backlog seeds per tick before yielding to
                                  // message delivery (steal requests must be
                                  // able to interleave with a deep backlog)
constexpr double kPeriodicTickUs = 50.0;    // kPeriodic sample/rebalance period
constexpr std::int64_t kMaxMovesPerTick = 256;  // rebalance push cap per tick
constexpr std::uint64_t kRebalanceExecPeriod = 64;  // plain-machine piggyback

// detail::SimTraceUser event kinds (first hash word), one per decision type.
constexpr std::uint64_t kTraceStealProbe = 0xC1D1;
constexpr std::uint64_t kTraceStealGrant = 0xC1D2;
constexpr std::uint64_t kTraceRebalance = 0xC1D3;

// Header `reserved` word layout for floating seeds.
struct SeedTag {
  std::uint32_t orig_handler;
  std::uint8_t hops;
  std::uint8_t prioritized;
  std::uint16_t pad;
};
static_assert(sizeof(SeedTag) == 8);

SeedTag LoadTag(const void* msg) {
  SeedTag t;
  std::memcpy(&t, &detail::Header(msg)->reserved, sizeof(t));
  return t;
}

void StoreTag(void* msg, const SeedTag& t) {
  std::memcpy(&detail::Header(msg)->reserved, &t, sizeof(t));
}

// Per-seed framing inside a steal reply: the seed's payload follows.
struct PackedSeed {
  std::uint32_t payload_size;
  std::int32_t int_prio;
  SeedTag tag;
};
static_assert(sizeof(PackedSeed) == 16);

struct CldState {
  CldStrategy strat = CldStrategy::kLocal;
  int seed_handler = -1;
  int status_handler = -1;
  int drain_handler = -1;
  int done_handler = -1;
  int worker_handler = -1;
  int steal_req_handler = -1;
  int steal_reply_handler = -1;
  int sample_handler = -1;
  int ptimer_handler = -1;
  // kNeighbor: load estimates for ring neighbors [prev, next].
  std::int64_t neighbor_load[2] = {0, 0};
  // kCentral (meaningful on PE 0): per-PE outstanding assigned seeds.
  std::vector<std::int64_t> outstanding;
  std::uint64_t placed = 0;
  std::uint64_t hops_seen = 0;
  std::uint64_t decisions = 0;
  int placed_since_report = 0;

  // ---- adaptive state (untouched by the legacy strategies) ----
  // The stealable backlog: best (smallest) effective priority first,
  // FIFO among equal priorities (multimap::insert appends to the range).
  std::multimap<std::int32_t, void*> store;
  bool ticking = false;    // a worker tick message is in flight
  bool in_worker = false;  // RunWorker is on the stack (spawns don't re-arm)
  double charge_us = 0.0;  // CldChargeTime accrual for the running seed
  double busy_us = 0.0;    // total charged here, ever
  std::uint64_t execs_since_pass = 0;  // plain-machine rebalance piggyback

  // kSteal.
  util::Xoshiro256 steal_rng{1};
  bool steal_pending = false;
  int steal_fails = 0;   // consecutive empty replies; probing stops at npes-1
  int last_victim = -1;  // cycled through on retries so every PE gets probed
  std::vector<std::uint8_t> hungry;  // thieves we owe a push (empty reply sent)
  int hungry_count = 0;
  std::uint32_t lose_reply_every = 0;  // planted bug (CldSetLoseStealReplyEvery)
  std::uint64_t replies_granted = 0;

  // kPeriodic.
  bool timer_armed = false;
  std::vector<std::int64_t> samples;  // last published store size, per PE
  std::int64_t published = 0;  // own store size as last sent to the peers

  CldCounters c;
};

int ModuleId();

CldState& St() {
  return *static_cast<CldState*>(detail::ModuleState(ModuleId()));
}

int RingPrev() {
  detail::PeState& pe = detail::CpvChecked();
  return (pe.mype + pe.npes - 1) % pe.npes;
}
int RingNext() {
  detail::PeState& pe = detail::CpvChecked();
  return (pe.mype + 1) % pe.npes;
}

/// All balancer wire traffic funnels through here so CldCounters::msgs_sent
/// stays an exact send count for the conservation oracles.
void SendCld(CldState& st, detail::PeState& pe, int dest, void* msg,
             double delay_us = 0.0) {
  ++st.c.msgs_sent;
  detail::SendOwnedFrom(pe, dest, msg,
                        pe.machine->sim() != nullptr ? delay_us : 0.0);
}

/// Restore the seed's own handler and enqueue it locally: the seed has
/// taken root.  Under the central strategy the seed is routed through a
/// completion handler so the dispatcher learns when work *executes*, not
/// merely when it is queued (a queue-time report would make an idle
/// dispatcher PE look permanently unloaded to itself).
void PlaceSeed(void* msg) {
  CldState& st = St();
  const SeedTag tag = LoadTag(msg);
  st.hops_seen += tag.hops;
  ++st.placed;
  ++st.c.placed;
  if (st.strat == CldStrategy::kCentral) {
    CmiSetHandler(msg, st.done_handler);  // keep the SeedTag for later
  } else {
    CmiSetHandler(msg, static_cast<int>(tag.orig_handler));
    StoreTag(msg, SeedTag{});
  }
  if (tag.prioritized != 0) {
    // converse-lint: allow(enqueue-delivered-buffer) seed is handler-owned
    CsdEnqueueIntPrio(msg, detail::Header(msg)->int_prio);
  } else {
    CsdEnqueue(msg);  // converse-lint: allow(enqueue-delivered-buffer)
  }
}

/// Central-strategy completion: runs when the seed is dequeued for
/// execution.  Reports drained work to the dispatcher, then delegates to
/// the seed's own handler (which owns and frees the message).
void DoneHandler(void* msg) {
  CldState& st = St();
  const SeedTag tag = LoadTag(msg);
  StoreTag(msg, SeedTag{});
  CmiSetHandler(msg, static_cast<int>(tag.orig_handler));
  detail::PeState& pe = detail::CpvChecked();
  if (++st.placed_since_report >= kDrainPeriod) {
    if (pe.mype == 0) {
      st.outstanding[0] -= st.placed_since_report;
    } else {
      const std::int32_t n = st.placed_since_report;
      void* report = CmiMakeMessage(st.drain_handler, &n, sizeof(n));
      SendCld(st, pe, 0, report);
    }
    st.placed_since_report = 0;
  }
  CmiGetHandlerFunction(msg)(msg);
}

void ForwardSeed(void* msg, int dest) {
  CldState& st = St();
  ++st.c.forwarded;
  SendCld(st, detail::CpvChecked(), dest, msg);
}

void MaybeSendNeighborStatus(CldState& st) {
  if (++st.decisions % kStatusPeriod != 0) return;
  const std::int64_t load = CldLoad();
  for (int n : {RingPrev(), RingNext()}) {
    if (n == CmiMyPe()) continue;  // npes <= 2 degenerate ring
    void* msg = CmiMakeMessage(st.status_handler, &load, sizeof(load));
    SendCld(st, detail::CpvChecked(), n, msg);
  }
}

// ---------------------------------------------------------------------------
// Adaptive backlog worker.
// ---------------------------------------------------------------------------

/// Send the worker's next tick to ourselves.  Self-sends are exempt from
/// fault injection, so the tick (and with it the whole adaptive execution
/// engine) is reliable even on faulted schedules.
void ArmTick(CldState& st, detail::PeState& pe, double delay_us) {
  assert(!st.ticking);
  st.ticking = true;
  void* tick = CmiMakeMessage(st.worker_handler, "", 0);
  SendCld(st, pe, pe.mype, tick, delay_us);
}

void MaybeArmWorker(CldState& st, detail::PeState& pe) {
  // A running worker loop re-arms itself as needed; a tick in flight will
  // see the new seed when it fires.
  if (st.ticking || st.in_worker) return;
  ArmTick(st, pe, 0.0);
}

void GrantSteal(CldState& st, detail::PeState& pe, int thief);
void PublishAndRebalance(CldState& st, detail::PeState& pe);

/// A thief we owed a push is waiting and the backlog regrew: give the
/// longest-waiting one (scanning from mype+1 so the choice is deterministic
/// and fair-ish) half of the store.
void ServeHungry(CldState& st, detail::PeState& pe) {
  if (st.hungry_count == 0 || st.store.size() < 2) return;
  for (int d = 1; d < pe.npes; ++d) {
    const int thief = (pe.mype + d) % pe.npes;
    if (st.hungry[static_cast<std::size_t>(thief)] == 0) continue;
    st.hungry[static_cast<std::size_t>(thief)] = 0;
    --st.hungry_count;
    GrantSteal(st, pe, thief);
    return;
  }
}

/// Push a seed into the stealable backlog (adaptive strategies' version of
/// taking root; execution happens later, from the worker).
void StoreSeed(CldState& st, detail::PeState& pe, void* msg,
               const SeedTag& tag) {
  const std::int32_t key =
      tag.prioritized != 0 ? detail::Header(msg)->int_prio : 0;
  st.store.insert(std::make_pair(key, msg));
  ++st.c.stored;
  st.steal_fails = 0;  // fresh work: probing may pay again after this drains
  if (st.strat == CldStrategy::kSteal) ServeHungry(st, pe);
  if (st.strat == CldStrategy::kPeriodic && pe.npes > 1 &&
      pe.machine->sim() != nullptr && !st.timer_armed) {
    st.timer_armed = true;
    void* t = CmiMakeMessage(st.ptimer_handler, "", 0);
    SendCld(st, pe, pe.mype, t, kPeriodicTickUs);
  }
  MaybeArmWorker(st, pe);
}

/// Execute one backlog seed inline: restore its handler and call it, the
/// same delegation the central strategy's DoneHandler uses.  The handler
/// owns (and frees) the message.
void ExecuteSeed(CldState& st, void* msg) {
  const SeedTag tag = LoadTag(msg);
  st.hops_seen += tag.hops;
  ++st.placed;
  ++st.c.placed;
  ++st.c.executed_store;
  StoreTag(msg, SeedTag{});
  CmiSetHandler(msg, static_cast<int>(tag.orig_handler));
  st.charge_us = 0.0;
  CmiGetHandlerFunction(msg)(msg);
}

/// Drain the backlog, best priority first, pacing with CldChargeTime
/// charges on timed machines and yielding to message delivery every
/// kWorkerBatch seeds.
void RunWorker(CldState& st, detail::PeState& pe) {
  st.in_worker = true;
  int executed = 0;
  while (!st.store.empty()) {
    if (executed >= kWorkerBatch) {
      st.in_worker = false;
      ArmTick(st, pe, 0.0);
      return;
    }
    auto it = st.store.begin();
    void* msg = it->second;
    st.store.erase(it);
    ++executed;
    if (st.strat == CldStrategy::kPeriodic && pe.machine->sim() == nullptr &&
        ++st.execs_since_pass >= kRebalanceExecPeriod) {
      st.execs_since_pass = 0;
      PublishAndRebalance(st, pe);
    }
    ExecuteSeed(st, msg);
    if (st.charge_us > 0.0 && pe.machine->sim() != nullptr) {
      // The seed declared virtual cost: the next pop happens that much
      // virtual time later.  Re-arm even with an empty store so the PE's
      // busy interval extends the run's virtual makespan.
      const double d = st.charge_us;
      st.charge_us = 0.0;
      st.in_worker = false;
      ArmTick(st, pe, d);
      return;
    }
    st.charge_us = 0.0;
  }
  st.in_worker = false;
}

void WorkerTickHandler(void*) {
  CldState& st = St();
  ++st.c.msgs_received;
  st.ticking = false;
  RunWorker(st, detail::CpvChecked());
}

// ---------------------------------------------------------------------------
// kSteal protocol.
// ---------------------------------------------------------------------------

/// Pack half of the store (coldest priorities first — the seeds this PE
/// would run last) into one reply and send it to `thief`.  Caller
/// guarantees store.size() >= 2.
void GrantSteal(CldState& st, detail::PeState& pe, int thief) {
  const std::size_t k = st.store.size() / 2;
  assert(k >= 1);
  std::size_t bytes = sizeof(std::uint32_t);
  std::vector<void*> taken;
  taken.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    auto it = std::prev(st.store.end());
    taken.push_back(it->second);
    st.store.erase(it);
    bytes += sizeof(PackedSeed) + CmiMsgPayloadSize(taken.back());
  }
  std::vector<unsigned char> buf(bytes);
  unsigned char* p = buf.data();
  const auto count = static_cast<std::uint32_t>(k);
  std::memcpy(p, &count, sizeof(count));
  p += sizeof(count);
  for (void* seed : taken) {
    PackedSeed ps;
    ps.payload_size = static_cast<std::uint32_t>(CmiMsgPayloadSize(seed));
    ps.int_prio = detail::Header(seed)->int_prio;
    ps.tag = LoadTag(seed);
    std::memcpy(p, &ps, sizeof(ps));
    p += sizeof(ps);
    std::memcpy(p, CmiMsgPayload(seed), ps.payload_size);
    p += ps.payload_size;
    CmiFree(seed);
  }
  st.c.stolen_out += k;
  ++st.replies_granted;
  ++pe.stats.ldb_steal_msgs;
  detail::SimTraceUser(pe, kTraceStealGrant,
                       (static_cast<std::uint64_t>(pe.mype) << 32) |
                           static_cast<std::uint32_t>(thief),
                       k);
  void* reply =
      CmiMakeMessage(st.steal_reply_handler, buf.data(), buf.size());
  if (st.lose_reply_every != 0 &&
      st.replies_granted % st.lose_reply_every == 0) {
    // Planted bug (simfuzz --ldb self-test): the grant counts as sent but
    // the reply — and the k seeds inside it — silently vanishes.
    ++st.c.msgs_sent;
    CmiFree(reply);
    return;
  }
  SendCld(st, pe, thief, reply);
}

/// Idle hook body for kSteal: nothing to run and no tick pending, so go
/// find a victim.  Returns true when a request went out (the scheduler
/// re-polls instead of blocking).
bool StealProbe(CldState& st, detail::PeState& pe) {
  if (pe.npes < 2) return false;
  if (!st.store.empty() || st.ticking) return false;  // work here or pending
  if (st.steal_pending) return false;                 // a probe is in flight
  if (st.steal_fails >= pe.npes - 1) return false;    // probed everyone: rest
  int victim;
  if (st.steal_fails == 0) {
    victim = static_cast<int>(
        st.steal_rng.Below(static_cast<std::uint64_t>(pe.npes - 1)));
    if (victim >= pe.mype) ++victim;  // uniform over the npes-1 others
  } else {
    victim = (st.last_victim + 1) % pe.npes;
    if (victim == pe.mype) victim = (victim + 1) % pe.npes;
  }
  st.last_victim = victim;
  st.steal_pending = true;
  ++pe.stats.ldb_steal_msgs;
  detail::SimTraceUser(pe, kTraceStealProbe,
                       (static_cast<std::uint64_t>(pe.mype) << 32) |
                           static_cast<std::uint32_t>(victim),
                       static_cast<std::uint64_t>(st.steal_fails));
  void* req = CmiMakeMessage(st.steal_req_handler, "", 0);
  SendCld(st, pe, victim, req);
  return true;
}

void StealReqHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  detail::PeState& pe = detail::CpvChecked();
  const int thief = CmiMsgSourcePe(msg);
  if (st.store.size() >= 2) {
    GrantSteal(st, pe, thief);
    return;
  }
  // Too little to share right now: reply empty so the thief can probe
  // elsewhere, but remember it — StoreSeed pushes half our backlog to a
  // hungry thief the moment it regrows (no work is ever stranded behind an
  // exhausted probe budget).
  if (st.hungry[static_cast<std::size_t>(thief)] == 0) {
    st.hungry[static_cast<std::size_t>(thief)] = 1;
    ++st.hungry_count;
  }
  const std::uint32_t zero = 0;
  void* reply = CmiMakeMessage(st.steal_reply_handler, &zero, sizeof(zero));
  ++pe.stats.ldb_steal_msgs;
  SendCld(st, pe, thief, reply);
}

void StealReplyHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  detail::PeState& pe = detail::CpvChecked();
  st.steal_pending = false;
  const auto* p = static_cast<const unsigned char*>(CmiMsgPayload(msg));
  std::uint32_t count = 0;
  std::memcpy(&count, p, sizeof(count));
  p += sizeof(count);
  if (count == 0) {
    ++st.steal_fails;  // next idle probes the next victim in the cycle
    return;
  }
  ++pe.stats.ldb_steals;
  st.c.stolen_in += count;
  for (std::uint32_t i = 0; i < count; ++i) {
    PackedSeed ps;
    std::memcpy(&ps, p, sizeof(ps));
    p += sizeof(ps);
    // Rebuild the floating seed in a fresh local buffer (the pool/flag
    // state of the victim's allocation does not travel).
    void* seed = CmiMakeMessage(st.seed_handler, p, ps.payload_size);
    p += ps.payload_size;
    detail::Header(seed)->int_prio = ps.int_prio;
    ps.tag.hops = static_cast<std::uint8_t>(
        std::min<unsigned>(255u, ps.tag.hops + 1u));
    StoreTag(seed, ps.tag);
    StoreSeed(st, pe, seed, ps.tag);
  }
}

// ---------------------------------------------------------------------------
// kPeriodic protocol.
// ---------------------------------------------------------------------------

/// Publish this PE's store size to every peer, then push excess seeds
/// toward under-average peers.  Runs from the virtual-clock timer on timed
/// machines and piggybacked on worker execution on plain ones.  An
/// unchanged size is not re-sent: the peers already hold it, and while
/// seeds run longer than a tick most ticks would re-send the same number.
void PublishAndRebalance(CldState& st, detail::PeState& pe) {
  if (pe.npes < 2) return;
  std::int64_t own = static_cast<std::int64_t>(st.store.size());
  st.samples[static_cast<std::size_t>(pe.mype)] = own;
  if (own != st.published) {
    st.published = own;
    for (int i = 0; i < pe.npes; ++i) {
      if (i == pe.mype) continue;
      void* s = CmiMakeMessage(st.sample_handler, &own, sizeof(own));
      SendCld(st, pe, i, s);
    }
  }
  std::int64_t total = 0;
  for (const std::int64_t v : st.samples) total += v;
  const std::int64_t avg =
      (total + pe.npes - 1) / pe.npes;  // ceil: never push below fair share
  if (own <= avg) return;
  std::int64_t excess = std::min<std::int64_t>(own - avg, kMaxMovesPerTick);
  for (int i = 0; i < pe.npes && excess > 0; ++i) {
    if (i == pe.mype) continue;
    const std::int64_t room = avg - st.samples[static_cast<std::size_t>(i)];
    if (room <= 0) continue;
    const std::int64_t gift = std::min(excess, room);
    for (std::int64_t j = 0; j < gift; ++j) {
      auto it = std::prev(st.store.end());  // coldest priorities travel
      void* seed = it->second;
      st.store.erase(it);
      SeedTag tag = LoadTag(seed);
      tag.hops =
          static_cast<std::uint8_t>(std::min<unsigned>(255u, tag.hops + 1u));
      StoreTag(seed, tag);
      ++st.c.rebalanced_out;
      ++st.c.forwarded;
      ++pe.stats.ldb_rebalance_moves;
      SendCld(st, pe, i, seed);
    }
    // Account the seeds as already there so this pass (and the next tick,
    // until fresher samples land) cannot push the same load twice.
    st.samples[static_cast<std::size_t>(i)] += gift;
    excess -= gift;
    detail::SimTraceUser(pe, kTraceRebalance,
                         (static_cast<std::uint64_t>(pe.mype) << 32) |
                             static_cast<std::uint32_t>(i),
                         static_cast<std::uint64_t>(gift));
  }
  st.samples[static_cast<std::size_t>(pe.mype)] =
      static_cast<std::int64_t>(st.store.size());
}

void PeriodicTickHandler(void*) {
  CldState& st = St();
  ++st.c.msgs_received;
  detail::PeState& pe = detail::CpvChecked();
  st.timer_armed = false;
  PublishAndRebalance(st, pe);
  if (!st.store.empty()) {
    // Keep sampling while there is a backlog; the timer dies with it (the
    // final, empty tick published our zero so peers stop counting on us),
    // which is what lets a sim run reach quiescence.
    st.timer_armed = true;
    void* t = CmiMakeMessage(st.ptimer_handler, "", 0);
    SendCld(st, pe, pe.mype, t, kPeriodicTickUs);
  }
}

void SampleHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  std::int64_t load = 0;
  std::memcpy(&load, CmiMsgPayload(msg), sizeof(load));
  st.samples[static_cast<std::size_t>(CmiMsgSourcePe(msg))] = load;
}

// ---------------------------------------------------------------------------
// Idle hook (registered once per PE; dispatches on the active strategy).
// ---------------------------------------------------------------------------

/// kCentral: flush a drain-report remainder smaller than kDrainPeriod when
/// the PE goes idle — without this the dispatcher's outstanding[] keeps a
/// permanent stale residue of up to kDrainPeriod-1 per PE and skews every
/// later decision (the bug the CentralBurstSpreadsEvenly test pins down).
bool CentralFlushRemainder(CldState& st, detail::PeState& pe) {
  if (st.placed_since_report == 0) return false;
  const std::int32_t n = st.placed_since_report;
  st.placed_since_report = 0;
  if (pe.mype == 0) {
    st.outstanding[0] -= n;
    return false;  // purely local bookkeeping: nothing new to deliver
  }
  void* report = CmiMakeMessage(st.drain_handler, &n, sizeof(n));
  SendCld(st, pe, 0, report);
  return true;
}

bool IdleHook(void*) {
  CldState& st = St();
  detail::PeState& pe = detail::CpvChecked();
  switch (st.strat) {
    case CldStrategy::kSteal:
      return StealProbe(st, pe);
    case CldStrategy::kCentral:
      return CentralFlushRemainder(st, pe);
    default:
      return false;
  }
}

/// The strategy decision: place the seed here or forward it (taking
/// ownership either way).  `msg` already carries a SeedTag and the cld seed
/// handler.
void Decide(void* msg) {
  CldState& st = St();
  detail::PeState& pe = detail::CpvChecked();
  SeedTag tag = LoadTag(msg);

  switch (st.strat) {
    case CldStrategy::kLocal:
      PlaceSeed(msg);
      return;

    case CldStrategy::kRandom: {
      if (tag.hops > 0) {  // already sprayed once
        PlaceSeed(msg);
        return;
      }
      const int dest =
          static_cast<int>(pe.rng.Below(static_cast<std::uint64_t>(pe.npes)));
      if (dest == pe.mype) {
        PlaceSeed(msg);
        return;
      }
      tag.hops = 1;
      StoreTag(msg, tag);
      ForwardSeed(msg, dest);
      return;
    }

    case CldStrategy::kNeighbor: {
      MaybeSendNeighborStatus(st);
      const std::int64_t my_load = CldLoad();
      const std::int64_t best =
          st.neighbor_load[0] < st.neighbor_load[1] ? st.neighbor_load[0]
                                                    : st.neighbor_load[1];
      if (pe.npes == 1 || tag.hops >= kMaxNeighborHops ||
          my_load <= best + 2) {
        PlaceSeed(msg);
        return;
      }
      const int dest =
          st.neighbor_load[0] <= st.neighbor_load[1] ? RingPrev() : RingNext();
      // Assume the seed lands there; keeps a burst from all going one way.
      ++st.neighbor_load[st.neighbor_load[0] <= st.neighbor_load[1] ? 0 : 1];
      ++tag.hops;
      StoreTag(msg, tag);
      ForwardSeed(msg, dest);
      return;
    }

    case CldStrategy::kCentral: {
      if (pe.mype == 0) {
        if (tag.hops >= 2) {  // assigned to us by ourselves earlier
          PlaceSeed(msg);
          return;
        }
        // Refresh the dispatcher's own slot from a direct measurement at
        // decision time: everything still queued here *is* PE 0's
        // outstanding work, so stale drain residue and in-flight
        // self-accounting can never skew the comparison against the
        // report-driven estimates for the other PEs.
        st.outstanding[0] = static_cast<std::int64_t>(CsdLength());
        // Dispatch to the least-outstanding PE.
        int best_pe = 0;
        for (int i = 1; i < pe.npes; ++i) {
          if (st.outstanding[static_cast<std::size_t>(i)] <
              st.outstanding[static_cast<std::size_t>(best_pe)]) {
            best_pe = i;
          }
        }
        ++st.outstanding[static_cast<std::size_t>(best_pe)];
        tag.hops = 2;
        StoreTag(msg, tag);
        if (best_pe == 0) {
          PlaceSeed(msg);
        } else {
          ForwardSeed(msg, best_pe);
        }
        return;
      }
      if (tag.hops >= 2) {  // assigned by the dispatcher: take root
        PlaceSeed(msg);
        return;
      }
      tag.hops = 1;  // en route to the dispatcher
      StoreTag(msg, tag);
      ForwardSeed(msg, 0);
      return;
    }

    case CldStrategy::kSteal:
    case CldStrategy::kPeriodic:
      // Adaptive placement is always local-first: seeds go into the
      // stealable backlog and move later via the steal/rebalance
      // protocols, which see real measured backlogs instead of guessing
      // at send time.
      StoreSeed(st, pe, msg, tag);
      return;
  }
  assert(false && "unknown load balancing strategy");
}

/// Network arrival of a floating seed.
void SeedHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  // Seeds arrive system-owned; we keep them (to enqueue, store or forward).
  CmiGrabBuffer(&msg);
  Decide(msg);
}

void StatusHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  std::int64_t load = 0;
  std::memcpy(&load, CmiMsgPayload(msg), sizeof(load));
  const int src = CmiMsgSourcePe(msg);
  if (src == RingPrev()) st.neighbor_load[0] = load;
  if (src == RingNext()) st.neighbor_load[1] = load;
}

void DrainHandler(void* msg) {
  CldState& st = St();
  ++st.c.msgs_received;
  std::int32_t n = 0;
  std::memcpy(&n, CmiMsgPayload(msg), sizeof(n));
  const int src = CmiMsgSourcePe(msg);
  st.outstanding[static_cast<std::size_t>(src)] -= n;
}

int ModuleId() {
  static const int id = detail::RegisterModule(
      "cld",
      [](int module_id) {
        auto* st = new CldState;
        detail::PeState& pe = detail::CpvChecked();
        st->seed_handler = CmiRegisterHandler(&SeedHandler);
        st->status_handler = CmiRegisterHandler(&StatusHandler);
        st->drain_handler = CmiRegisterHandler(&DrainHandler);
        st->done_handler = CmiRegisterHandler(&DoneHandler);
        st->worker_handler = CmiRegisterHandler(&WorkerTickHandler);
        st->steal_req_handler = CmiRegisterHandler(&StealReqHandler);
        st->steal_reply_handler = CmiRegisterHandler(&StealReplyHandler);
        st->sample_handler = CmiRegisterHandler(&SampleHandler);
        st->ptimer_handler = CmiRegisterHandler(&PeriodicTickHandler);
        const auto npes = static_cast<std::size_t>(pe.npes);
        st->outstanding.assign(npes, 0);
        st->hungry.assign(npes, 0);
        st->samples.assign(npes, 0);
        // The steal PRNG streams from the sim seed when simulated (so a
        // replayed sim seed replays the same victims) and from the machine
        // seed otherwise; SplitMix decorrelates the per-PE streams.
        const std::uint64_t base = pe.machine->sim() != nullptr
                                       ? pe.machine->sim_config().seed
                                       : pe.machine->config().seed;
        util::SplitMix64 sm(base +
                            0x9e3779b97f4a7c15ULL *
                                static_cast<std::uint64_t>(pe.mype + 1));
        st->steal_rng = util::Xoshiro256(sm.Next());
        pe.idle_hooks.push_back(detail::PeState::IdleHook{&IdleHook, nullptr});
        detail::SetModuleState(module_id, st);
      },
      [](void* state) {
        auto* st = static_cast<CldState*>(state);
        // Normal runs drain the backlog before the schedulers return; an
        // aborted one can leave seeds behind, and they are ours to free.
        for (auto& kv : st->store) CmiFree(kv.second);
        delete st;
      });
  return id;
}

void Wrap(void* msg, bool prioritized) {
  CldState& st = St();
  SeedTag tag;
  tag.orig_handler = detail::Header(msg)->handler;
  tag.hops = 0;
  tag.prioritized = prioritized ? 1 : 0;
  tag.pad = 0;
  StoreTag(msg, tag);
  CmiSetHandler(msg, st.seed_handler);
}

}  // namespace

void CldSetStrategy(CldStrategy strategy) { St().strat = strategy; }
CldStrategy CldGetStrategy() { return St().strat; }

void CldEnqueue(void* msg) {
  assert(CmiMsgIsValid(msg));
  ++St().c.spawned;
  Wrap(msg, /*prioritized=*/false);
  Decide(msg);
}

void CldEnqueuePrio(void* msg, std::int32_t prio) {
  assert(CmiMsgIsValid(msg));
  ++St().c.spawned;
  detail::Header(msg)->int_prio = prio;
  Wrap(msg, /*prioritized=*/true);
  Decide(msg);
}

int CldLoad() {
  return static_cast<int>(CsdLength() + St().store.size());
}

std::uint64_t CldSeedsPlaced() { return St().placed; }
std::uint64_t CldSeedHops() { return St().hops_seen; }

void CldChargeTime(double us) {
  CldState& st = St();
  st.busy_us += us;
  st.charge_us += us;
}

double CldBusyTimeUs() { return St().busy_us; }

CldCounters CldGetCounters() { return St().c; }

void CldSetLoseStealReplyEvery(std::uint32_t n) {
  St().lose_reply_every = n;
}

}  // namespace converse

// Registration entry point used by the header anchor (see the module
// registration note in the public header).
int converse::detail::CldModuleRegister() { return converse::ModuleId(); }

// Request/response service runtime (converse/svc.h).
//
// Everything here is per-PE and single-writer: handlers and worker threads
// of one PE run cooperatively on that PE's thread, so PerPe needs no locks.
// The only cross-PE channels are messages (requests, replies, the non-sim
// completion protocol) — which is exactly the Converse model.
#include "converse/svc.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "converse/cmi.h"
#include "converse/cmm.h"
#include "converse/csd.h"
#include "converse/cth.h"
#include "converse/machine.h"
#include "converse/msg.h"
#include "converse/util/rng.h"
#include "core/pe_state.h"

namespace converse::svc {

namespace {

enum ReplyKind : std::uint32_t {
  kCompleted = 0,
  kShedQueue = 1,     // refused at admission: queue-depth cap
  kShedDeadline = 2,  // dropped at dequeue: deadline already passed
};

enum TimerKind : std::uint32_t {
  kTick = 0,        // open-loop generator arrival
  kWorkerWake = 1,  // service-time clock of one worker
};

struct ReqWire {
  std::uint64_t session;
  std::uint64_t reqid;
  double sent_us;      // client clock at send (CmiTimer * 1e6)
  double deadline_us;  // absolute shed deadline (0 = none)
  std::uint32_t client_pe;
  std::uint32_t pad;
};

struct ReplyWire {
  std::uint64_t session;
  std::uint64_t reqid;
  double sent_us;  // echoed client stamp — the latency baseline
  std::uint64_t session_count;
  std::uint32_t kind;  // ReplyKind
  std::uint32_t server_pe;
};

struct TimerWire {
  std::uint32_t kind;  // TimerKind
  std::uint32_t worker;
};

double NowUsF() { return CmiTimer() * 1e6; }

/// Per-PE PRNG stream derived from the load seed (same expansion idiom as
/// the fuzz workload): deterministic and distinct per PE.
util::Xoshiro256 PeStream(std::uint64_t seed, int pe, std::uint64_t salt) {
  util::SplitMix64 sm(seed ^ salt);
  std::uint64_t s = 0;
  for (int i = 0; i <= pe + 1; ++i) s = sm.Next();
  return util::Xoshiro256(s);
}

void* MakeMsg(int handler, const void* wire, std::size_t wire_bytes,
              std::size_t extra_bytes) {
  void* msg = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                       wire_bytes + extra_bytes);
  CmiSetHandler(msg, handler);
  std::memcpy(CmiMsgPayload(msg), wire, wire_bytes);
  if (extra_bytes > 0) {
    std::memset(static_cast<char*>(CmiMsgPayload(msg)) + wire_bytes, 0x5a,
                extra_bytes);
  }
  return msg;
}

}  // namespace

struct Service::PerPe {
  explicit PerPe(unsigned sub_bits) {
    stats.latency_ns = util::LogHistogram(sub_bits);
  }

  const SvcConfig* cfg = nullptr;
  int mype = 0;
  int npes = 1;
  bool simmed = false;  // sim-backed: virtual-time timers, and quiescence
                        // ends the run

  SvcPeStats stats;

  // Server side.
  struct Session {
    std::uint64_t count = 0;
    std::uint64_t mix = 0;
  };
  MSG_MNGR* mm = nullptr;  // the pending-request mailbox (admission queue)
  std::vector<Session> sessions;
  struct Worker {
    CthThread* t = nullptr;
    bool idle = false;  // suspended waiting for work (wake via CthAwaken)
    bool exited = false;
  };
  std::vector<Worker> workers;
  bool shutdown = false;
  util::Xoshiro256 srv_rng{0};  // exponential service-time draws

  // Client side (open-loop generator).
  SvcLoad load;
  util::Xoshiro256 gen_rng{0};
  std::uint64_t gen_remaining = 0;
  std::uint64_t next_reqid = 0;
  bool all_sent = true;
  bool done_sent = false;  // non-sim completion protocol
  int dones = 0;           // PE 0 only: client-done messages seen

  int h_req = -1, h_reply = -1, h_timer = -1, h_done = -1;

  ~PerPe() {
    if (mm != nullptr) CmmFree(mm);  // abort path; Serve() frees it normally
  }
};

namespace {

using PerPe = Service::PerPe;

void ArmTimer(PerPe& me, std::uint32_t kind, std::uint32_t worker,
              double delay_us) {
  TimerWire t{kind, worker};
  void* msg = MakeMsg(me.h_timer, &t, sizeof(t), 0);
  ++me.stats.timers_sent;
  CmiSyncSendDelayedAndFree(static_cast<unsigned>(me.mype),
                            static_cast<unsigned>(CmiMsgTotalSize(msg)), msg,
                            delay_us);
}

void SendReply(PerPe& me, const ReqWire& w, std::uint32_t kind,
               std::uint64_t session_count) {
  ReplyWire r{w.session, w.reqid,          w.sent_us,
              session_count, kind, static_cast<std::uint32_t>(me.mype)};
  void* msg = MakeMsg(me.h_reply, &r, sizeof(r), 0);
  if (me.cfg->lose_reply_every != 0 && kind == kCompleted &&
      me.stats.completed % me.cfg->lose_reply_every == 0) {
    // The planted bug: the reply vanishes without any bookkeeping trace.
    // The end-to-end conservation oracle (simfuzz --service) must notice.
    CmiFree(msg);
    return;
  }
  CmiSyncSendAndFree(w.client_pe,
                     static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

double DrawGapUs(PerPe& me) {
  const SvcLoad& l = me.load;
  const double per = 1e6 / l.rate_per_pe;
  switch (l.arrival) {
    case Arrival::kUniform:
      return per;
    case Arrival::kPoisson:
      return -std::log(1.0 - me.gen_rng.NextDouble()) * per;
    case Arrival::kBurst:
      return per * l.burst;
  }
  return per;
}

void SendOneRequest(PerPe& me) {
  const std::uint64_t session = me.gen_rng.Below(me.cfg->sessions);
  const double now = NowUsF();
  ReqWire w{};
  w.session = session;
  w.reqid = (static_cast<std::uint64_t>(me.mype) << 40) | me.next_reqid++;
  w.sent_us = now;
  w.deadline_us =
      me.cfg->deadline_us > 0 ? now + me.cfg->deadline_us : 0.0;
  w.client_pe = static_cast<std::uint32_t>(me.mype);
  void* msg = MakeMsg(me.h_req, &w, sizeof(w), me.cfg->payload_bytes);
  ++me.stats.requests_sent;
  --me.gen_remaining;
  CmiSyncSendAndFree(static_cast<unsigned>(SessionOwner(session, me.npes)),
                     static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

/// Non-sim termination: once this PE has sent everything and seen one reply
/// or shed notice per request, tell PE 0; PE 0 broadcasts the scheduler
/// exit when every PE said so.  (Under the sim the quiescence exit does
/// this for free — and keeps working when fault injection eats replies.)
void MaybeClientDone(PerPe& me) {
  if (me.simmed || me.done_sent || !me.all_sent) return;
  if (me.stats.replies_received + me.stats.shed_notices_received <
      me.stats.requests_sent) {
    return;
  }
  me.done_sent = true;
  const std::uint32_t from = static_cast<std::uint32_t>(me.mype);
  void* msg = MakeMsg(me.h_done, &from, sizeof(from), 0);
  CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

void WorkFor(PerPe& me, std::uint32_t worker, double us) {
  if (us <= 0) return;
  if (me.simmed) {
    // Sim-backed machine: park on a delayed self-send — the service time is
    // exact virtual time, and workers overlap (the PE serves other work
    // while this one waits on its clock).
    ArmTimer(me, kWorkerWake, worker, us);
    CthSuspend();
    return;
  }
  // Real machine: service time is CPU time, so spin — the request occupies
  // the PE, which is what makes offered rates above 1/service_time an
  // actual overload.
  const double until = NowUsF() + us;
  while (NowUsF() < until) {
  }
}

void ProcessRequest(PerPe& me, std::uint32_t worker, const ReqWire& w) {
  detail::PeState& pe = detail::CpvChecked();
  if (w.deadline_us > 0 && NowUsF() > w.deadline_us) {
    ++me.stats.shed_deadline;
    ++pe.stats.svc_shed;
    SendReply(me, w, kShedDeadline, 0);
    return;
  }
  double st = me.cfg->service_time_us;
  if (me.cfg->exp_service) {
    st = -std::log(1.0 - me.srv_rng.NextDouble()) * st;
  }
  WorkFor(me, worker, st);
  PerPe::Session& s =
      me.sessions[static_cast<std::size_t>(w.session) /
                  static_cast<std::size_t>(me.npes)];
  ++s.count;
  s.mix = s.mix * 0x100000001b3ull ^ w.reqid;
  ++me.stats.completed;
  ++pe.stats.svc_completed;
  SendReply(me, w, kCompleted, s.count);
}

void WakeIdleWorker(PerPe& me) {
  for (PerPe::Worker& wk : me.workers) {
    if (wk.idle) {
      wk.idle = false;  // claimed before the awaken: no double-wake
      CthAwaken(wk.t);
      return;
    }
  }
  // All workers busy: the request waits in the mailbox; whichever worker
  // finishes first drains it before going idle.
}

}  // namespace

Service::Service(const SvcConfig& cfg, int npes) : cfg_(cfg), npes_(npes) {
  assert(npes >= 1);
  assert(cfg.workers >= 1);
  assert(cfg.sessions >= 1);
  for (int i = 0; i < npes; ++i) {
    pes_.push_back(std::make_unique<PerPe>(cfg_.hist_sub_bits));
  }
}

Service::~Service() = default;

void Service::Start() {
  const int mype = CmiMyPe();
  assert(CmiNumPes() == npes_ && "Service built for a different PE count");
  PerPe& me = *pes_[static_cast<std::size_t>(mype)];
  detail::Machine& m = *detail::CpvChecked().machine;
  me.cfg = &cfg_;
  me.mype = mype;
  me.npes = npes_;
  me.simmed = m.sim() != nullptr;
  me.mm = CmmNew();
  me.sessions.assign(
      static_cast<std::size_t>(cfg_.sessions) /
              static_cast<std::size_t>(npes_) + 1,
      PerPe::Session{});
  me.srv_rng = PeStream(cfg_.sessions * 31 + 7, mype, 0x53525643ull);

  // Handler registration order is identical on every PE, so ids agree.
  me.h_req = CmiRegisterHandler([&me](void* msg) {
    detail::PeState& pe = detail::CpvChecked();
    ReqWire w;
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    ++me.stats.requests_received;
    // Admission control: a full pending queue sheds immediately, so the
    // cost of an over-capacity request is one O(1) check and a small
    // notice — not an unbounded queue that collapses every latency.
    if (CmmLength(me.mm) >= me.cfg->queue_cap) {
      ++me.stats.shed_queue;
      ++pe.stats.svc_shed;
      SendReply(me, w, kShedQueue, 0);
      return;
    }
    ++me.stats.admitted;
    ++pe.stats.svc_admitted;
    CmmPut(me.mm, &w, static_cast<int>(w.session & 0x3ff),
           static_cast<int>(sizeof(w)));
    WakeIdleWorker(me);
  });

  me.h_reply = CmiRegisterHandler([&me](void* msg) {
    ReplyWire r;
    std::memcpy(&r, CmiMsgPayload(msg), sizeof(r));
    if (r.kind == kCompleted) {
      ++me.stats.replies_received;
      const double lat_us = NowUsF() - r.sent_us;
      me.stats.latency_ns.Record(static_cast<std::uint64_t>(
          std::llround(lat_us > 0 ? lat_us * 1000.0 : 0.0)));
    } else {
      ++me.stats.shed_notices_received;
    }
    MaybeClientDone(me);
  });

  me.h_timer = CmiRegisterHandler([&me](void* msg) {
    TimerWire t;
    std::memcpy(&t, CmiMsgPayload(msg), sizeof(t));
    ++me.stats.timers_fired;
    if (t.kind == kWorkerWake) {
      CthAwaken(me.workers[t.worker].t);
      return;
    }
    // Generator tick: emit this arrival (a burst emits several), then arm
    // the next one.  Gaps depend only on the generator PRNG — open loop.
    std::uint64_t n =
        me.load.arrival == Arrival::kBurst ? me.load.burst : 1;
    while (n-- > 0 && me.gen_remaining > 0) SendOneRequest(me);
    if (me.gen_remaining > 0) {
      ArmTimer(me, kTick, 0, DrawGapUs(me));
    } else {
      me.all_sent = true;
      MaybeClientDone(me);
    }
  });

  me.h_done = CmiRegisterHandler([&me](void*) {
    ++me.dones;
    if (me.dones == me.npes) ConverseBroadcastExit();
  });

  me.workers.resize(static_cast<std::size_t>(cfg_.workers));
  for (int wi = 0; wi < cfg_.workers; ++wi) {
    const auto w = static_cast<std::uint32_t>(wi);
    me.workers[wi].t = CthCreate([&me, w] {
      PerPe::Worker& self = me.workers[w];
      for (;;) {
        ReqWire req;
        while (!me.shutdown &&
               CmmGet(me.mm, &req, CmmWildCard,
                      static_cast<int>(sizeof(req)), nullptr) >= 0) {
          ProcessRequest(me, w, req);
        }
        if (me.shutdown) break;
        // No yield point between the empty-mailbox check and the suspend
        // (cooperative PE), so a request can never slip past an idling
        // worker unnoticed.
        self.idle = true;
        CthSuspend();
        self.idle = false;
      }
      self.exited = true;
    });
    // Kick the worker once so it runs to its first park; until then it is
    // not idle (WakeIdleWorker skips it) but will drain the mailbox on its
    // first pass anyway.
    CthAwaken(me.workers[wi].t);
  }
}

void Service::GenerateLoad(const SvcLoad& load) {
  PerPe& me = *pes_[static_cast<std::size_t>(CmiMyPe())];
  assert(me.mm != nullptr && "GenerateLoad before Start");
  me.load = load;
  me.gen_rng = PeStream(load.seed, me.mype, 0x47454e00ull);
  me.gen_remaining = load.requests_per_pe;
  if (me.gen_remaining == 0) return;
  me.all_sent = false;
  if (me.simmed) {
    // Virtual-time generator: a chain of delayed self-ticks, armed here and
    // advanced by h_timer once Serve() runs the scheduler.
    ArmTimer(me, kTick, 0, DrawGapUs(me));
    return;
  }
  // Real machine: pace against the wall clock, serving (polling the
  // scheduler) while waiting so this PE's own sessions stay live.  The
  // schedule of send times never depends on replies — open loop.
  double next_us = NowUsF() + DrawGapUs(me);
  while (me.gen_remaining > 0) {
    while (NowUsF() < next_us) CsdSchedulePoll(32);
    std::uint64_t n = load.arrival == Arrival::kBurst ? load.burst : 1;
    while (n-- > 0 && me.gen_remaining > 0) SendOneRequest(me);
    next_us += DrawGapUs(me);
  }
  me.all_sent = true;
}

void Service::Serve() {
  PerPe& me = *pes_[static_cast<std::size_t>(CmiMyPe())];
  assert(me.mm != nullptr && "Serve before Start");
  MaybeClientDone(me);  // zero-request clients are done immediately
  CsdScheduler(-1);
  // Wind down: wake every idle worker so it observes shutdown and exits
  // (local resumes only — nothing here disturbs quiescence elsewhere).
  me.shutdown = true;
  for (;;) {
    bool all_exited = true;
    for (PerPe::Worker& wk : me.workers) {
      if (wk.exited) continue;
      all_exited = false;
      if (wk.idle) {
        wk.idle = false;
        CthAwaken(wk.t);
      }
    }
    if (all_exited) break;
    CsdScheduleUntilIdle();
  }
  CmmFree(me.mm);
  me.mm = nullptr;
}

const SvcPeStats& Service::PeStats(int pe) const {
  return pes_[static_cast<std::size_t>(pe)]->stats;
}

SvcPeStats Service::Total() const {
  SvcPeStats t;
  t.latency_ns = util::LogHistogram(cfg_.hist_sub_bits);
  for (const auto& pe : pes_) {
    const SvcPeStats& s = pe->stats;
    t.requests_sent += s.requests_sent;
    t.replies_received += s.replies_received;
    t.shed_notices_received += s.shed_notices_received;
    t.requests_received += s.requests_received;
    t.admitted += s.admitted;
    t.shed_queue += s.shed_queue;
    t.shed_deadline += s.shed_deadline;
    t.completed += s.completed;
    t.timers_sent += s.timers_sent;
    t.timers_fired += s.timers_fired;
    t.latency_ns.Merge(s.latency_ns);
  }
  return t;
}

}  // namespace converse::svc

// Service fuzzing (tools/simfuzz --service): run the request/response
// service of converse/svc.h under the deterministic simulator and check the
// request-conservation oracles of converse/svc.h against the injector's
// exact fault counts.  Mirrors the structure of src/sim/fuzz.cpp: a case is
// a pure function of SvcFuzzParams, failing seeds shrink greedily, and a
// one-line replay command reproduces any failure.
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <string>

#include "converse/fuzz.h"
#include "converse/machine.h"
#include "converse/svc.h"

namespace converse::svc {
namespace {

/// Fixed workload knobs that are not worth fuzzing: a mean service time and
/// a dequeue deadline a few multiples above it, so queue-cap sheds,
/// deadline sheds, and plain completions all occur across the seed space.
constexpr double kServiceUs = 3.0;
constexpr double kDeadlineUs = 30.0;
constexpr std::uint32_t kPlantEvery = 5;

SvcConfig MakeConfig(const SvcFuzzParams& p) {
  SvcConfig cfg;
  cfg.sessions = p.sessions;
  cfg.workers = p.workers;
  cfg.queue_cap = p.queue_cap;
  cfg.service_time_us = kServiceUs;
  cfg.exp_service = true;  // PRNG-drawn, so still deterministic per seed
  cfg.deadline_us = kDeadlineUs;
  if (p.plant_lost_reply) cfg.lose_reply_every = kPlantEvery;
  return cfg;
}

void Fail(SvcFuzzResult& res, const char* fmt, ...) {
  if (!res.failure.empty()) return;
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  res.failure = buf;
}

}  // namespace

SvcFuzzResult RunSvcFuzzCase(const SvcFuzzParams& params) {
  SvcFuzzResult res;
  Service svc(MakeConfig(params), params.npes);

  SimConfig sim;
  sim.seed = params.seed;
  sim.faults = params.faults;
  sim.report = &res.report;

  MachineConfig cfg;
  cfg.npes = params.npes;
  cfg.seed = params.seed;
  cfg.sim = &sim;
  // Always explicit (never the -1 env default): a CONVERSE_AGG in the
  // environment must not silently change what a seed replays.
  cfg.aggregate_sends = 0;

  SvcLoad load;
  load.rate_per_pe = params.rate_per_pe;
  load.requests_per_pe = params.requests_per_pe;
  load.arrival = Arrival::kPoisson;
  load.seed = params.seed;

  try {
    RunConverse(cfg, [&svc, &load](int, int) {
      svc.Start();
      svc.GenerateLoad(load);
      svc.Serve();
    });
  } catch (const std::exception& e) {
    res.ok = false;
    res.failure = std::string("machine aborted: ") + e.what();
    res.totals = svc.Total();
    return res;
  }
  const SvcPeStats t = svc.Total();
  res.totals = t;

  if (!res.report.quiesced) {
    Fail(res, "run did not end by global quiescence");
  }
  // Server bookkeeping balances exactly under any fault mix: every received
  // request is either admitted or queue-shed, and every admitted request is
  // either completed or deadline-shed (counters are per-PE single-writer).
  if (t.requests_received != t.admitted + t.shed_queue) {
    Fail(res,
         "admission imbalance: %llu received != %llu admitted + %llu "
         "queue-shed",
         static_cast<unsigned long long>(t.requests_received),
         static_cast<unsigned long long>(t.admitted),
         static_cast<unsigned long long>(t.shed_queue));
  }
  if (t.admitted != t.completed + t.shed_deadline) {
    Fail(res,
         "service imbalance: %llu admitted != %llu completed + %llu "
         "deadline-shed",
         static_cast<unsigned long long>(t.admitted),
         static_cast<unsigned long long>(t.completed),
         static_cast<unsigned long long>(t.shed_deadline));
  }
  // Timers are delayed self-sends — exempt from fault injection — so they
  // conserve exactly even when every fault dimension is enabled.
  if (t.timers_fired != t.timers_sent) {
    Fail(res, "timer conservation violated: %llu armed but %llu fired",
         static_cast<unsigned long long>(t.timers_sent),
         static_cast<unsigned long long>(t.timers_fired));
  }
  // Every completed reply is recorded into the latency histogram once.
  if (t.latency_ns.Count() != t.replies_received) {
    Fail(res, "histogram count %llu != %llu completed replies received",
         static_cast<unsigned long long>(t.latency_ns.Count()),
         static_cast<unsigned long long>(t.replies_received));
  }
  // Total message conservation: the service's send-side counters say how
  // many wire messages it handed to the machine (requests, one reply per
  // completion, one notice per shed, timers), the injector's report says
  // exactly how many it ate or cloned, and the receive-side counters must
  // account for the rest.  A reply that silently never gets sent
  // (lose_reply_every) inflates the send tally without a matching receive
  // or drop — this is the oracle that catches the planted bug.
  const std::uint64_t sent = t.requests_sent + t.completed + t.shed_queue +
                             t.shed_deadline + t.timers_sent;
  const std::uint64_t received = t.requests_received + t.replies_received +
                                 t.shed_notices_received + t.timers_fired;
  const std::uint64_t expected =
      sent - res.report.msgs_dropped + res.report.msgs_duplicated;
  if (res.failure.empty() && received != expected) {
    Fail(res,
         "conservation violated: %llu service messages sent, %llu dropped + "
         "%llu duplicated by injection, but %llu received (expected %llu)",
         static_cast<unsigned long long>(sent),
         static_cast<unsigned long long>(res.report.msgs_dropped),
         static_cast<unsigned long long>(res.report.msgs_duplicated),
         static_cast<unsigned long long>(received),
         static_cast<unsigned long long>(expected));
  }
  if (!params.faults.Any() && res.failure.empty()) {
    // No faults: end-to-end conservation, per message class.
    if (t.requests_received != t.requests_sent) {
      Fail(res, "no faults, yet %llu of %llu requests never arrived",
           static_cast<unsigned long long>(t.requests_sent -
                                           t.requests_received),
           static_cast<unsigned long long>(t.requests_sent));
    }
    if (t.replies_received != t.completed) {
      Fail(res, "no faults, yet %llu completed requests but only %llu "
                "replies came back",
           static_cast<unsigned long long>(t.completed),
           static_cast<unsigned long long>(t.replies_received));
    }
    if (t.shed_notices_received != t.shed_queue + t.shed_deadline) {
      Fail(res, "no faults, yet %llu sheds but only %llu notices came back",
           static_cast<unsigned long long>(t.shed_queue + t.shed_deadline),
           static_cast<unsigned long long>(t.shed_notices_received));
    }
  }
  res.ok = res.failure.empty();
  return res;
}

const fuzz::Workload<SvcFuzzParams, SvcFuzzResult>& SvcFuzzWorkload() {
  using P = SvcFuzzParams;
  using fuzz::At;
  using enum fuzz::Shrink;
  using enum fuzz::Print;
  static const fuzz::Workload<P, SvcFuzzResult> w{
      .mode = "--service",
      .run = RunSvcFuzzCase,
      .print_ok =
          [](const P&, const SvcFuzzResult& r) {
            std::printf(
                "%llu requests: %llu completed, %llu shed, virtual time "
                "%.0f us, faults: %llu dropped, %llu duplicated, %llu "
                "delayed, %llu reordered",
                static_cast<unsigned long long>(r.totals.requests_sent),
                static_cast<unsigned long long>(r.totals.completed),
                static_cast<unsigned long long>(r.totals.shed_queue +
                                                r.totals.shed_deadline),
                r.report.final_virtual_us,
                static_cast<unsigned long long>(r.report.msgs_dropped),
                static_cast<unsigned long long>(r.report.msgs_duplicated),
                static_cast<unsigned long long>(r.report.msgs_delayed),
                static_cast<unsigned long long>(r.report.msgs_reordered));
          },
      .budget = 48,
      .fields = {
          {.flag = "--pes", .at = At<&P::npes>, .shrink = kHalve, .step = 2,
           .floor = 1, .lo = 1},
          {.flag = "--sessions", .at = At<&P::sessions>, .shrink = kHalve,
           .step = 3, .floor = 1, .lo = 1},
          {.flag = "--workers", .at = At<&P::workers>, .shrink = kHalve,
           .step = 1, .floor = 1, .lo = 1},
          {.flag = "--requests", .at = At<&P::requests_per_pe>,
           .shrink = kHalve, .step = 0, .floor = 1},
          {.flag = "--rate", .at = At<&P::rate_per_pe>,
           .lo = std::numeric_limits<double>::denorm_min()},
          {.flag = "--qcap", .at = At<&P::queue_cap>},
          {.flag = "--drop", .at = At<&P::faults, &SimFaults::drop>,
           .shrink = kFloor, .step = 4, .print = kIfSet, .hi = 1},
          {.flag = "--dup", .at = At<&P::faults, &SimFaults::dup>,
           .shrink = kFloor, .step = 5, .print = kIfSet, .hi = 1},
          {.flag = "--delay", .at = At<&P::faults, &SimFaults::delay>,
           .shrink = kFloor, .step = 6, .print = kIfSet, .hi = 1},
          {.flag = "--reorder", .at = At<&P::faults, &SimFaults::reorder>,
           .shrink = kFloor, .step = 7, .print = kIfSet, .hi = 1},
          {.flag = "--plant-lost-reply", .at = At<&P::plant_lost_reply>,
           .print = kIfSet, .sets = 1},
      }};
  return w;
}

}  // namespace converse::svc

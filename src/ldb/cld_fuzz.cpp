// Load-balancer fuzzing (tools/simfuzz --ldb): run a seeded skewed seed
// workload through converse/cld.h under the deterministic simulator and
// check the conservation oracles of converse/cld.h against the injector's
// exact fault counts.  Mirrors the structure of src/svc/svc_fuzz.cpp: a
// case is a pure function of LdbFuzzParams, failing seeds shrink greedily,
// and a one-line replay command reproduces any failure.
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "converse/cld.h"
#include "converse/cmi.h"
#include "converse/csd.h"
#include "converse/fuzz.h"
#include "converse/handlers.h"
#include "converse/machine.h"
#include "converse/msg.h"
#include "converse/util/rng.h"

namespace converse::ldb {
namespace {

constexpr std::uint32_t kPlantEvery = 3;
constexpr double kWaveGapUs = 200.0;  // virtual time between spawn bursts

/// Per-PE workload tally (single writer: the owning PE; the sim serializes
/// all cross-PE execution, and results are only summed after the machine
/// joined).
struct WlPe {
  std::uint64_t spawned = 0;
  std::uint64_t executed = 0;
  std::uint64_t aux_sent = 0;      // wave-timer self-sends (fault-exempt)
  std::uint64_t aux_received = 0;
  CldCounters cld;
};

struct Wl {
  LdbFuzzParams p;
  int strategy = 0;
  std::vector<WlPe> pes;
};

Wl* g_wl = nullptr;  // fuzz cases run one at a time (set before RunConverse)

// Handler indices are identical on every PE because every PE registers the
// two workload handlers in the same order inside the entry (per-PE-thread
// slots: handler tables are per machine run).
int& WlSeedHandlerSlot() {
  thread_local int idx = -1;
  return idx;
}
int& WlWaveHandlerSlot() {
  thread_local int idx = -1;
  return idx;
}

/// Spawn one wave's worth of seeds on the calling PE: skewed integer costs
/// (declared to the balancer via CldChargeTime when the seed runs) and a
/// prio_fraction slice of prioritized seeds, all drawn from a per-PE
/// SplitMix stream so the workload is a pure function of (seed, pe, wave).
void SpawnWave(Wl& wl, int mype, int wave) {
  WlPe& me = wl.pes[static_cast<std::size_t>(mype)];
  const std::uint64_t per_wave =
      wl.p.seeds_per_pe / static_cast<std::uint64_t>(wl.p.waves);
  std::uint64_t n = per_wave;
  if (wave == wl.p.waves - 1) {
    n += wl.p.seeds_per_pe % static_cast<std::uint64_t>(wl.p.waves);
  }
  util::SplitMix64 sm(wl.p.seed ^
                      (0x9e3779b97f4a7c15ULL *
                       static_cast<std::uint64_t>(mype * 131 + wave + 1)));
  const auto prio_per_mille =
      static_cast<std::uint64_t>(wl.p.prio_fraction * 1000.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Skewed cost: the product of two small uniforms clusters near zero
    // with a long-ish tail, enough spread to make backlogs uneven.
    const std::uint32_t cost =
        1 + static_cast<std::uint32_t>((sm.Next() % 8) * (sm.Next() % 8));
    void* seed = CmiMakeMessage(WlSeedHandlerSlot(), &cost, sizeof(cost));
    ++me.spawned;
    if (sm.Next() % 1000 < prio_per_mille) {
      CldEnqueuePrio(seed, static_cast<std::int32_t>(sm.Next() % 16));
    } else {
      CldEnqueue(seed);
    }
  }
}

void ArmNextWave(Wl& wl, int mype, int next_wave) {
  if (next_wave >= wl.p.waves) return;
  WlPe& me = wl.pes[static_cast<std::size_t>(mype)];
  const std::int32_t w = next_wave;
  void* msg = CmiMakeMessage(WlWaveHandlerSlot(), &w, sizeof(w));
  ++me.aux_sent;
  // Delayed self-send: a reliable virtual-time timer even under faults.
  CmiSyncSendDelayedAndFree(static_cast<unsigned>(mype),
                            static_cast<unsigned>(CmiMsgTotalSize(msg)), msg,
                            kWaveGapUs * (next_wave + 1));
}

void Entry(int mype, int npes) {
  (void)npes;
  Wl& wl = *g_wl;
  CldSetStrategy(static_cast<CldStrategy>(wl.strategy));
  if (wl.p.plant_lost_steal_reply) CldSetLoseStealReplyEvery(kPlantEvery);

  WlSeedHandlerSlot() = CmiRegisterHandler([](void* msg) {
    Wl& w = *g_wl;
    WlPe& me = w.pes[static_cast<std::size_t>(CmiMyPe())];
    ++me.executed;
    std::uint32_t cost = 0;
    std::memcpy(&cost, CmiMsgPayload(msg), sizeof(cost));
    CldChargeTime(static_cast<double>(cost));
    CmiFree(msg);
  });
  WlWaveHandlerSlot() = CmiRegisterHandler([](void* msg) {
    Wl& w = *g_wl;
    const int me = CmiMyPe();
    ++w.pes[static_cast<std::size_t>(me)].aux_received;
    std::int32_t wave = 0;
    std::memcpy(&wave, CmiMsgPayload(msg), sizeof(wave));
    SpawnWave(w, me, wave);
    ArmNextWave(w, me, wave + 1);
  });

  SpawnWave(wl, mype, /*wave=*/0);
  ArmNextWave(wl, mype, /*next_wave=*/1);
  CsdScheduler(-1);  // runs until the sim's global-quiescence exit
  wl.pes[static_cast<std::size_t>(mype)].cld = CldGetCounters();
}

void Fail(LdbFuzzResult& res, const char* fmt, ...) {
  if (!res.failure.empty()) return;
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  res.failure = buf;
}

}  // namespace

LdbFuzzResult RunLdbFuzzCase(const LdbFuzzParams& params) {
  LdbFuzzResult res;
  Wl wl;
  wl.p = params;
  if (params.plant_lost_steal_reply) {
    wl.strategy = static_cast<int>(CldStrategy::kSteal);
  } else if (params.strategy >= 0) {
    wl.strategy = params.strategy % kCldStrategyCount;
  } else {
    wl.strategy = static_cast<int>(util::SplitMix64(params.seed).Next() %
                                   kCldStrategyCount);
  }
  res.strategy = wl.strategy;
  wl.pes.assign(static_cast<std::size_t>(params.npes), WlPe{});
  g_wl = &wl;

  SimConfig sim;
  sim.seed = params.seed;
  sim.faults = params.faults;
  sim.report = &res.report;
  // The balancer workloads push 10^5..10^6 wire messages per case; the
  // background race detector's per-send bookkeeping would dominate the run
  // (CciRace coverage of the steal path lives in test_ldb_stress instead).
  sim.race_detect = false;

  MachineConfig cfg;
  cfg.npes = params.npes;
  cfg.seed = params.seed;
  cfg.sim = &sim;
  // Always explicit (never the -1 env default): a CONVERSE_AGG in the
  // environment must not silently change what a seed replays.
  cfg.aggregate_sends = 0;

  try {
    RunConverse(cfg, &Entry);
  } catch (const std::exception& e) {
    g_wl = nullptr;
    res.ok = false;
    res.failure = std::string("machine aborted: ") + e.what();
    return res;
  }
  g_wl = nullptr;

  CldCounters t;
  std::uint64_t aux_sent = 0;
  std::uint64_t aux_received = 0;
  for (const WlPe& pe : wl.pes) {
    res.spawned += pe.spawned;
    res.executed += pe.executed;
    aux_sent += pe.aux_sent;
    aux_received += pe.aux_received;
    t.spawned += pe.cld.spawned;
    t.placed += pe.cld.placed;
    t.forwarded += pe.cld.forwarded;
    t.stored += pe.cld.stored;
    t.executed_store += pe.cld.executed_store;
    t.stolen_out += pe.cld.stolen_out;
    t.stolen_in += pe.cld.stolen_in;
    t.rebalanced_out += pe.cld.rebalanced_out;
    t.msgs_sent += pe.cld.msgs_sent;
    t.msgs_received += pe.cld.msgs_received;
  }
  res.totals = t;

  if (!res.report.quiesced) {
    Fail(res, "run did not end by global quiescence");
  }
  // The stealable backlog drains exactly under any fault mix: whatever was
  // stored was either executed by the worker, packed into a steal reply, or
  // pushed by a rebalance pass (per-PE single-writer counters).
  if (t.stored != t.executed_store + t.stolen_out + t.rebalanced_out) {
    Fail(res,
         "backlog imbalance: %llu stored != %llu executed + %llu stolen-out "
         "+ %llu rebalanced-out",
         static_cast<unsigned long long>(t.stored),
         static_cast<unsigned long long>(t.executed_store),
         static_cast<unsigned long long>(t.stolen_out),
         static_cast<unsigned long long>(t.rebalanced_out));
  }
  // Total message conservation: the balancer's send counter plus the
  // workload's wave timers say how many wire messages went out, the
  // injector's report says exactly how many it ate or cloned, and the
  // receive-side counters must account for the rest.  A steal reply that
  // silently never gets sent (CldSetLoseStealReplyEvery) inflates the send
  // tally without a matching receive or drop — one of the two oracles that
  // catch the planted bug.
  const std::uint64_t sent = t.msgs_sent + aux_sent;
  const std::uint64_t received = t.msgs_received + aux_received;
  const std::uint64_t expected =
      sent - res.report.msgs_dropped + res.report.msgs_duplicated;
  if (res.failure.empty() && received != expected) {
    Fail(res,
         "conservation violated: %llu balancer+workload messages sent, %llu "
         "dropped + %llu duplicated by injection, but %llu received "
         "(expected %llu)",
         static_cast<unsigned long long>(sent),
         static_cast<unsigned long long>(res.report.msgs_dropped),
         static_cast<unsigned long long>(res.report.msgs_duplicated),
         static_cast<unsigned long long>(received),
         static_cast<unsigned long long>(expected));
  }
  if (!params.faults.Any() && res.failure.empty()) {
    // No faults: every spawned seed takes root and executes exactly once —
    // the oracle that catches a lost steal reply (its packed seeds vanish).
    if (t.spawned != res.spawned) {
      Fail(res, "balancer saw %llu seeds but the workload spawned %llu",
           static_cast<unsigned long long>(t.spawned),
           static_cast<unsigned long long>(res.spawned));
    }
    if (t.placed != res.spawned) {
      Fail(res, "no faults, yet %llu of %llu seeds never took root",
           static_cast<unsigned long long>(res.spawned - t.placed),
           static_cast<unsigned long long>(res.spawned));
    }
    if (res.executed != res.spawned) {
      Fail(res, "no faults, yet %llu of %llu seeds never executed",
           static_cast<unsigned long long>(res.spawned - res.executed),
           static_cast<unsigned long long>(res.spawned));
    }
    if (t.stolen_in != t.stolen_out) {
      Fail(res, "no faults, yet %llu seeds stolen out but %llu landed",
           static_cast<unsigned long long>(t.stolen_out),
           static_cast<unsigned long long>(t.stolen_in));
    }
  }
  res.ok = res.failure.empty();
  return res;
}

const fuzz::Workload<LdbFuzzParams, LdbFuzzResult>& LdbFuzzWorkload() {
  using P = LdbFuzzParams;
  using fuzz::At;
  using enum fuzz::Shrink;
  using enum fuzz::Print;
  static const fuzz::Workload<P, LdbFuzzResult> w{
      .mode = "--ldb",
      .run = RunLdbFuzzCase,
      .print_ok =
          [](const P&, const LdbFuzzResult& r) {
            std::printf(
                "strategy %d, %llu seeds: %llu stolen, %llu rebalanced, "
                "virtual time %.0f us, faults: %llu dropped, %llu "
                "duplicated, %llu delayed, %llu reordered",
                r.strategy, static_cast<unsigned long long>(r.spawned),
                static_cast<unsigned long long>(r.totals.stolen_in),
                static_cast<unsigned long long>(r.totals.rebalanced_out),
                r.report.final_virtual_us,
                static_cast<unsigned long long>(r.report.msgs_dropped),
                static_cast<unsigned long long>(r.report.msgs_duplicated),
                static_cast<unsigned long long>(r.report.msgs_delayed),
                static_cast<unsigned long long>(r.report.msgs_reordered));
          },
      .budget = 48,
      // A shrunk case must fail for the same reason, and the -1 draw would
      // re-roll the strategy once other dimensions change.
      .pin = [](P& p) { p.strategy = RunLdbFuzzCase(p).strategy; },
      .fields = {
          {.flag = "--pes", .at = At<&P::npes>, .shrink = kHalve, .step = 2,
           .floor = 2, .lo = 1},
          {.flag = "--strategy", .at = At<&P::strategy>, .lo = -1,
           .hi = kCldStrategyCount - 1},
          {.flag = "--lseeds", .at = At<&P::seeds_per_pe>, .shrink = kHalve,
           .step = 0, .floor = 1, .lo = 1},
          {.flag = "--waves", .at = At<&P::waves>, .shrink = kHalve,
           .step = 1, .floor = 1, .lo = 1},
          {.flag = "--prio-frac", .at = At<&P::prio_fraction>,
           .shrink = kFloor, .step = 3, .hi = 1},
          {.flag = "--drop", .at = At<&P::faults, &SimFaults::drop>,
           .shrink = kFloor, .step = 4, .print = kIfSet, .hi = 1},
          {.flag = "--dup", .at = At<&P::faults, &SimFaults::dup>,
           .shrink = kFloor, .step = 5, .print = kIfSet, .hi = 1},
          {.flag = "--delay", .at = At<&P::faults, &SimFaults::delay>,
           .shrink = kFloor, .step = 6, .print = kIfSet, .hi = 1},
          {.flag = "--reorder", .at = At<&P::faults, &SimFaults::reorder>,
           .shrink = kFloor, .step = 7, .print = kIfSet, .hi = 1},
          {.flag = "--plant-lost-steal-reply",
           .at = At<&P::plant_lost_steal_reply>, .print = kIfSet, .sets = 1},
      }};
  return w;
}

}  // namespace converse::ldb

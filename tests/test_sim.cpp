// Deterministic simulation backend (converse/sim.h): reproducibility of
// the event schedule, fault-injection accounting, the fuzz oracles, seed
// minimization, and virtual-time semantics.
#include "test_helpers.h"

#include <stdexcept>
#include <string>

using namespace converse;

namespace {

sim::FuzzParams BaseParams(std::uint64_t seed) {
  sim::FuzzParams p;
  p.seed = seed;
  p.npes = 4;
  p.actions = 32;
  p.threads = 2;
  return p;
}

}  // namespace

TEST(Sim, SameSeedGivesIdenticalEventTrace) {
  // The whole point of the simulator: a seed fully determines the run.
  for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const sim::FuzzResult a = sim::RunFuzzCase(BaseParams(seed));
    const sim::FuzzResult b = sim::RunFuzzCase(BaseParams(seed));
    ASSERT_TRUE(a.ok) << a.failure;
    ASSERT_TRUE(b.ok) << b.failure;
    EXPECT_EQ(a.report.trace_hash, b.report.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.report.events, b.report.events);
    EXPECT_EQ(a.report.context_switches, b.report.context_switches);
    EXPECT_EQ(a.report.final_virtual_us, b.report.final_virtual_us);
  }
}

TEST(Sim, DifferentSeedsGiveDifferentSchedules) {
  const sim::FuzzResult a = sim::RunFuzzCase(BaseParams(21));
  const sim::FuzzResult b = sim::RunFuzzCase(BaseParams(22));
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_NE(a.report.trace_hash, b.report.trace_hash);
}

TEST(Sim, OraclesHoldOnCleanRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const sim::FuzzResult r = sim::RunFuzzCase(BaseParams(seed));
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_TRUE(r.report.quiesced);
    EXPECT_GT(r.report.events, 0u);
    EXPECT_EQ(r.report.msgs_dropped, 0u);
    EXPECT_EQ(r.report.msgs_duplicated, 0u);
  }
}

TEST(Sim, OraclesHoldUnderFaultInjection) {
  // With every fault dimension enabled the conservation oracle still
  // balances, because the injector reports exact drop/duplicate counts.
  bool any_faults = false;
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    sim::FuzzParams p = BaseParams(seed);
    p.faults.drop = 0.05;
    p.faults.dup = 0.05;
    p.faults.delay = 0.25;
    p.faults.reorder = 0.1;
    const sim::FuzzResult r = sim::RunFuzzCase(p);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_TRUE(r.report.quiesced);
    any_faults |= r.report.msgs_dropped > 0 || r.report.msgs_duplicated > 0 ||
                  r.report.msgs_delayed > 0 || r.report.msgs_reordered > 0;
    // Fault seeds must not change with the same injection config either.
    const sim::FuzzResult again = sim::RunFuzzCase(p);
    EXPECT_EQ(r.report.trace_hash, again.report.trace_hash);
    EXPECT_EQ(r.report.msgs_dropped, again.report.msgs_dropped);
  }
  EXPECT_TRUE(any_faults) << "injection probabilities never fired";
}

TEST(Sim, FaultCapLimitsInjection) {
  sim::FuzzParams p = BaseParams(5);
  p.faults.drop = 1.0;  // would drop everything...
  p.faults.max_faults = 3;  // ...but the cap stops after three
  const sim::FuzzResult r = sim::RunFuzzCase(p);
  EXPECT_TRUE(r.ok) << r.failure;
  // The cap counts injection events; a dropped broadcast carrier loses its
  // whole subtree of logical messages, so msgs_dropped can exceed the cap.
  EXPECT_EQ(r.report.faults_injected, 3u);
  EXPECT_GE(r.report.msgs_dropped, 3u);
}

TEST(Sim, PlantedOrderingBugIsCaughtAndShrunk) {
  // The acceptance demo: a deliberately planted message-reordering bug is
  // detected by the FIFO oracle, minimized, and reported as a replayable
  // seed line.
  sim::FuzzParams p = BaseParams(42);
  p.actions = 48;
  p.plant_reorder_bug = true;
  const sim::FuzzResult r = sim::RunFuzzCase(p);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("FIFO"), std::string::npos) << r.failure;

  const auto& w = sim::FuzzWorkload();
  const sim::FuzzParams small = w.Minimize(p);
  const sim::FuzzResult still = sim::RunFuzzCase(small);
  EXPECT_FALSE(still.ok) << "minimized case no longer fails";
  EXPECT_LT(small.actions, p.actions);
  EXPECT_LE(small.npes, p.npes);

  const std::string replay = w.FormatReplay(small);
  EXPECT_NE(replay.find("CONVERSE_SIM_SEED="), std::string::npos) << replay;
  EXPECT_NE(replay.find("--plant-bug"), std::string::npos) << replay;
  // And the shrunk line is a complete reproduction: running it again via
  // the params gives the same failure deterministically.
  EXPECT_EQ(sim::RunFuzzCase(small).failure, still.failure);
}

// Replay lines reproduce the run: every field away from its default, and
// doubles printed so they read back exactly.
class SimReplay : public ::testing::TestWithParam<double> {};

TEST_P(SimReplay, ParseOfFormatReplayIsIdentity) {
  const double x = GetParam();
  sim::FuzzParams p;
  p.seed = 1234567890123ull;
  p.npes = 7;
  p.actions = 5;
  p.threads = 3;
  p.faults.drop = x;
  p.faults.dup = x / 3;
  p.faults.delay = 1 - x;
  p.faults.reorder = x * x;
  p.plant_reorder_bug = true;
  p.aggregate = true;
  const auto& w = sim::FuzzWorkload();
  EXPECT_EQ(ctu::ParseReplay(w, w.FormatReplay(p)), p) << w.FormatReplay(p);
}

INSTANTIATE_TEST_SUITE_P(Doubles, SimReplay, ctu::kReplayDoubles);

TEST(Sim, RaceReplayRoundTrips) {
  const auto& w = sim::RaceFuzzWorkload();
  for (int plant : {1, 2}) {
    sim::RaceFuzzParams p;
    p.seed = 99;
    p.npes = 3;
    p.chains = 2;
    p.hops = 9;
    p.plant = plant;
    EXPECT_EQ(ctu::ParseReplay(w, w.FormatReplay(p)), p) << w.FormatReplay(p);
  }
}

TEST(Sim, VirtualClockIsExactUnderNetModel) {
  // 20 ms of modeled latency costs zero wall time and shows up as exactly
  // 20000 virtual microseconds on CmiTimer.
  NetModel slow;
  slow.name = "sim-exact";
  slow.alpha_us = 20000;
  SimConfig sim;
  SimReport report;
  sim.report = &report;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &slow;
  cfg.sim = &sim;
  std::atomic<double> at_delivery_us{-1};
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      at_delivery_us = CmiTimer() * 1e6;
      CsdExitScheduler();
    });
    if (pe == 0) {
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
      return;
    }
    CsdScheduler(-1);
  });
  EXPECT_DOUBLE_EQ(at_delivery_us.load(), 20000.0);
  EXPECT_GE(report.final_virtual_us, 20000.0);
}

TEST(Sim, QuiescenceExitEndsIdleRun) {
  // With exit_on_quiescence (the default), a run whose handlers stop
  // generating work ends on its own: no explicit exit broadcast needed.
  SimConfig sim;
  SimReport report;
  sim.report = &report;
  MachineConfig cfg;
  cfg.npes = 3;
  cfg.sim = &sim;
  std::atomic<int> delivered{0};
  RunConverse(cfg, [&](int pe, int n) {
    int h = CmiRegisterHandler([&](void*) { delivered.fetch_add(1); });
    if (pe == 0) {
      for (int d = 0; d < n; ++d) {
        void* m = CmiMakeMessage(h, nullptr, 0);
        CmiSyncSendAndFree(static_cast<unsigned>(d), CmiMsgTotalSize(m), m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(delivered.load(), 3);
  EXPECT_TRUE(report.quiesced);
}

TEST(Sim, DeadlockIsDetectedWhenQuiescenceExitIsOff) {
  // With exit_on_quiescence off, a machine where every PE waits forever is
  // a deadlock; the simulator reports it (with the replay seed) instead of
  // hanging.
  SimConfig sim;
  sim.seed = 99;
  sim.exit_on_quiescence = false;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.sim = &sim;
  try {
    RunConverse(cfg, [&](int, int) {
      CmiRegisterHandler([](void*) {});
      CsdScheduler(-1);  // no one ever sends anything
    });
    FAIL() << "deadlocked machine returned normally";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

TEST(Sim, ReportCountsContextSwitchesAndEvents) {
  const sim::FuzzResult r = sim::RunFuzzCase(BaseParams(3));
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.report.events, r.report.context_switches);
  EXPECT_GT(r.report.context_switches, 0u);
}

TEST(Sim, OutcomeHashIsDeterministicAndOrderInsensitive) {
  // Same seed -> identical outcome digest (alongside the ordered trace
  // hash); the digest also survives schedule changes that permute the same
  // multiset of deliveries, which is what CciRace's replay relies on.
  const sim::FuzzResult a = sim::RunFuzzCase(BaseParams(5));
  const sim::FuzzResult b = sim::RunFuzzCase(BaseParams(5));
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_NE(a.report.outcome_hash, 0u);
  EXPECT_EQ(a.report.outcome_hash, b.report.outcome_hash);
  EXPECT_FALSE(a.report.flip_applied);  // no flip configured
}

TEST(Sim, FlipWithAbsentTargetLeavesFlipUnapplied) {
  // A flip whose hold identity never hits the wire must flush cleanly at
  // quiescence with flip_applied=false (the "unreplayable" signal).
  SimReport report;
  SimConfig sim;
  sim.seed = 11;
  sim.report = &report;
  sim.flip.enabled = true;
  sim.flip.hold_src = 0;
  sim.flip.hold_seq = 0xfffffff0u;  // never allocated by this short run
  sim.flip.until_src = 1;
  sim.flip.until_seq = 0xfffffff1u;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.sim = &sim;
  cfg.aggregate_sends = 0;
  RunConverse(cfg, [](int pe, int) {
    const int h = CmiRegisterHandler([](void*) {});
    if (pe == 0) {
      void* msg = CmiAlloc(CmiMsgHeaderSizeBytes());
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, static_cast<unsigned>(CmiMsgHeaderSizeBytes()),
                         msg);
    }
    CsdScheduler(-1);
  });
  EXPECT_TRUE(report.quiesced);
  EXPECT_FALSE(report.flip_applied);
  EXPECT_NE(report.outcome_hash, 0u);
}

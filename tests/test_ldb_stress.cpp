// Million-task skewed-workload stress suite for the seed balancer
// (converse/cld.h), run under the deterministic simulator so occupancy is
// virtual time (CldChargeTime) and every result is a pure function of the
// sim seed regardless of host core count.
//
// Proven here, per strategy where it applies:
//  * seed conservation at scale: Zipf task costs, bursty spawn waves and a
//    branch-and-bound spawn tree all execute every seed exactly once;
//  * bounded imbalance / idle fraction for the adaptive strategies on the
//    skewed workloads (the acceptance bar benchmarks/ldb_strategies.cpp
//    measures is asserted here at test scale);
//  * determinism: the same sim seed reproduces the same event-trace hash,
//    the same per-PE placements and the same virtual makespan, with send
//    aggregation off or on;
//  * the steal path's cross-PE interleavings classify benign-commutative
//    under CciRaceAnalyze (the suite's TSan leg soaks StealChurn instead).
//
// Scale drops automatically for sanitizer and debug builds: the point of
// the full 2^20 run is the release CI leg and local release runs.
#include "test_helpers.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "converse/util/rng.h"

using namespace converse;

namespace {

constexpr int kZipfLevels = 1024;  // bounded cost levels: 1..1024 virtual us

int ScaleDivisor() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return 16;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return 16;
#elif !defined(NDEBUG)
  return 8;
#else
  return 1;
#endif
#elif !defined(NDEBUG)
  return 8;
#else
  return 1;
#endif
}

/// Total seeds for the headline runs: 2^20 in release builds.
std::uint64_t HeadlineSeeds() { return (1ull << 20) / ScaleDivisor(); }

/// Bounded Zipf sampler: P(level) proportional to level^-s over
/// 1..kZipfLevels; a seed's virtual cost is its level in microseconds.
/// Bounding the tail keeps the largest single task far below a PE's fair
/// share, so perfect balancing is achievable and the imbalance bound is a
/// property of the strategy, not of one monster task.
class ZipfCost {
 public:
  explicit ZipfCost(double s) {
    cdf_.resize(kZipfLevels);
    double total = 0;
    for (int l = 1; l <= kZipfLevels; ++l) {
      total += 1.0 / std::pow(static_cast<double>(l), s);
      cdf_[static_cast<size_t>(l - 1)] = total;
    }
    for (double& v : cdf_) v /= total;
  }

  std::uint32_t Sample(std::uint64_t u) const {
    const double x =
        static_cast<double>(u >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    return static_cast<std::uint32_t>(it - cdf_.begin()) + 1;
  }

 private:
  std::vector<double> cdf_;
};

const ZipfCost& Zipf10() {
  static const ZipfCost z(1.0);
  return z;
}
const ZipfCost& Zipf12() {
  static const ZipfCost z(1.2);
  return z;
}

struct StressResult {
  std::vector<std::uint64_t> executed;
  std::vector<double> busy_us;
  std::vector<std::uint64_t> placed;
  std::vector<CldCounters> counters;
  SimReport report;

  std::uint64_t ExecutedTotal() const {
    std::uint64_t t = 0;
    for (auto v : executed) t += v;
    return t;
  }
  double BusyTotal() const {
    double t = 0;
    for (double v : busy_us) t += v;
    return t;
  }
  double MaxOverMeanBusy() const {
    double max = 0;
    for (double v : busy_us) max = std::max(max, v);
    const double mean = BusyTotal() / static_cast<double>(busy_us.size());
    return mean > 0 ? max / mean : 0.0;
  }
  /// Fraction of the run's PE-time not covered by charged work.
  double IdleFraction() const {
    const double span = report.final_virtual_us *
                        static_cast<double>(busy_us.size());
    return span > 0 ? 1.0 - BusyTotal() / span : 0.0;
  }
  CldCounters Totals() const {
    CldCounters t;
    for (const CldCounters& c : counters) {
      t.stored += c.stored;
      t.executed_store += c.executed_store;
      t.stolen_out += c.stolen_out;
      t.stolen_in += c.stolen_in;
      t.rebalanced_out += c.rebalanced_out;
      t.spawned += c.spawned;
      t.placed += c.placed;
    }
    return t;
  }
  /// Order-sensitive digest of where seeds ended up (determinism checks).
  std::uint64_t PlacementDigest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t v : executed) {
      h = (h ^ v) * 1099511628211ull;
    }
    return h;
  }
};

struct StressCase {
  CldStrategy strategy = CldStrategy::kSteal;
  int npes = 8;
  std::uint64_t total_seeds = 1 << 16;
  int waves = 1;           // 1 = single burst; >1 = virtual-time-spaced waves
  bool single_source = false;  // all seeds from PE 0 (else spread over PEs)
  double zipf_s = 1.2;
  std::uint64_t sim_seed = 42;
  int aggregate = 0;
};

/// Run one skewed workload to quiescence under the sim and collect per-PE
/// results.  Spawning happens in waves armed by delayed self-sends (a
/// reliable virtual-time timer), each wave drawing seed costs from a
/// per-(PE, wave) SplitMix stream.
StressResult RunStress(const StressCase& sc) {
  StressResult r;
  r.executed.assign(static_cast<size_t>(sc.npes), 0);
  r.busy_us.assign(static_cast<size_t>(sc.npes), 0);
  r.placed.assign(static_cast<size_t>(sc.npes), 0);
  r.counters.assign(static_cast<size_t>(sc.npes), CldCounters{});

  const ZipfCost& zipf = sc.zipf_s >= 1.1 ? Zipf12() : Zipf10();
  const int spawners = sc.single_source ? 1 : sc.npes;
  const std::uint64_t per_spawner = sc.total_seeds / spawners;

  SimConfig sim;
  sim.seed = sc.sim_seed;
  sim.report = &r.report;
  sim.race_detect = false;  // 10^6 sends: the HB recorder would dominate
  MachineConfig cfg;
  cfg.npes = sc.npes;
  cfg.seed = sc.sim_seed;
  cfg.sim = &sim;
  cfg.aggregate_sends = sc.aggregate;  // explicit: env must not leak in

  RunConverse(cfg, [&](int pe, int) {
    CldSetStrategy(sc.strategy);
    thread_local int h_seed = -1;
    h_seed = CmiRegisterHandler([&r, pe](void* msg) {
      std::uint32_t cost = 0;
      std::memcpy(&cost, CmiMsgPayload(msg), sizeof(cost));
      ++r.executed[static_cast<size_t>(pe)];
      CldChargeTime(static_cast<double>(cost));
      CmiFree(msg);
    });
    thread_local int h_wave = -1;
    h_wave = CmiRegisterHandler([&, pe](void* msg) {
      int wave = 0;
      std::memcpy(&wave, CmiMsgPayload(msg), sizeof(wave));
      std::uint64_t n = per_spawner / static_cast<std::uint64_t>(sc.waves);
      if (wave == sc.waves - 1) {
        n += per_spawner % static_cast<std::uint64_t>(sc.waves);
      }
      util::SplitMix64 sm(sc.sim_seed ^
                          (0x9e3779b97f4a7c15ULL *
                           static_cast<std::uint64_t>(pe * 1031 + wave + 1)));
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t cost = zipf.Sample(sm.Next());
        void* m = CmiMakeMessage(h_seed, &cost, sizeof(cost));
        CldEnqueue(m);
      }
      if (wave + 1 < sc.waves) {
        int next = wave + 1;
        void* nm = CmiMakeMessage(h_wave, &next, sizeof(next));
        CmiSyncSendDelayedAndFree(static_cast<unsigned>(pe),
                                  static_cast<unsigned>(CmiMsgTotalSize(nm)),
                                  nm, 5000.0);
      }
    });
    if (!sc.single_source || pe == 0) {
      int w0 = 0;
      void* m = CmiMakeMessage(h_wave, &w0, sizeof(w0));
      CmiSyncSendDelayedAndFree(static_cast<unsigned>(pe),
                                static_cast<unsigned>(CmiMsgTotalSize(m)), m,
                                1.0 + pe);
    }
    CsdScheduler(-1);  // sim exits on global quiescence
    r.busy_us[static_cast<size_t>(pe)] = CldBusyTimeUs();
    r.placed[static_cast<size_t>(pe)] = CldSeedsPlaced();
    r.counters[static_cast<size_t>(pe)] = CldGetCounters();
  });
  return r;
}

std::uint64_t ExpectedSeeds(const StressCase& sc) {
  const int spawners = sc.single_source ? 1 : sc.npes;
  return sc.total_seeds / spawners * static_cast<std::uint64_t>(spawners);
}

void ExpectConserved(const StressCase& sc, const StressResult& r) {
  const std::uint64_t want = ExpectedSeeds(sc);
  EXPECT_TRUE(r.report.quiesced);
  EXPECT_EQ(r.ExecutedTotal(), want);
  const CldCounters t = r.Totals();
  EXPECT_EQ(t.spawned, want);
  EXPECT_EQ(t.placed, want);
  EXPECT_EQ(t.stored, t.executed_store + t.stolen_out + t.rebalanced_out);
  EXPECT_EQ(t.stolen_in, t.stolen_out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Conservation at scale, every strategy.
// ---------------------------------------------------------------------------

class LdbStressAll : public ::testing::TestWithParam<CldStrategy> {};

TEST_P(LdbStressAll, SkewedWavesConserveEverySeed) {
  StressCase sc;
  sc.strategy = GetParam();
  sc.npes = 8;
  sc.total_seeds = HeadlineSeeds() / 8;  // 2^17 per strategy in release
  sc.waves = 4;
  sc.zipf_s = 1.2;
  const StressResult r = RunStress(sc);
  ExpectConserved(sc, r);
}

INSTANTIATE_TEST_SUITE_P(Strategies, LdbStressAll,
                         ::testing::Values(CldStrategy::kLocal,
                                           CldStrategy::kRandom,
                                           CldStrategy::kNeighbor,
                                           CldStrategy::kCentral,
                                           CldStrategy::kSteal,
                                           CldStrategy::kPeriodic),
                         [](const auto& info) {
                           switch (info.param) {
                             case CldStrategy::kLocal: return "Local";
                             case CldStrategy::kRandom: return "Random";
                             case CldStrategy::kNeighbor: return "Neighbor";
                             case CldStrategy::kCentral: return "Central";
                             case CldStrategy::kSteal: return "Steal";
                             case CldStrategy::kPeriodic: return "Periodic";
                           }
                           return "?";
                         });

// ---------------------------------------------------------------------------
// The headline run: 2^20 Zipf(1.2) seeds, single source, 8 PEs, kSteal.
// ---------------------------------------------------------------------------

TEST(LdbStress, MillionSeedSingleSourceStealBalances) {
  StressCase sc;
  sc.strategy = CldStrategy::kSteal;
  sc.npes = 8;
  sc.total_seeds = HeadlineSeeds();
  sc.single_source = true;
  sc.zipf_s = 1.2;
  const StressResult r = RunStress(sc);
  ExpectConserved(sc, r);
  EXPECT_GT(r.Totals().stolen_in, 0u) << "nothing was ever stolen";
  // Balancing quality on the most adversarial shape (everything born on
  // one PE): charged work spreads within the acceptance bound and PEs
  // spend most of the virtual makespan busy.
  EXPECT_LE(r.MaxOverMeanBusy(), 1.25);
  EXPECT_LE(r.IdleFraction(), 0.30);
}

TEST(LdbStress, BurstyWavesStealKeepsImbalanceBounded) {
  StressCase sc;
  sc.strategy = CldStrategy::kSteal;
  sc.npes = 8;
  sc.total_seeds = HeadlineSeeds() / 4;
  sc.waves = 8;
  sc.zipf_s = 1.2;
  const StressResult r = RunStress(sc);
  ExpectConserved(sc, r);
  EXPECT_LE(r.MaxOverMeanBusy(), 1.25);
}

TEST(LdbStress, BurstyWavesPeriodicKeepsImbalanceBounded) {
  StressCase sc;
  sc.strategy = CldStrategy::kPeriodic;
  sc.npes = 8;
  sc.total_seeds = HeadlineSeeds() / 4;
  sc.waves = 8;
  sc.zipf_s = 1.0;
  const StressResult r = RunStress(sc);
  ExpectConserved(sc, r);
  EXPECT_LE(r.MaxOverMeanBusy(), 1.5) << "rebalancing left a hot spot";
}

// ---------------------------------------------------------------------------
// Branch-and-bound spawn tree: seeds spawning seeds, exact node count.
// ---------------------------------------------------------------------------

namespace {

struct TreeState {
  std::atomic<std::uint64_t> executed{0};
};

/// Every seed spawns `branch` children until `depth` runs out; the total
/// node count of the uniform tree is exact, so a single lost or duplicated
/// seed anywhere in the steal pipeline shows up as a count mismatch.
std::uint64_t TreeNodes(std::uint64_t branch, std::uint64_t depth) {
  std::uint64_t total = 0, level = 1;
  for (std::uint64_t d = 0; d <= depth; ++d) {
    total += level;
    level *= branch;
  }
  return total;
}

}  // namespace

TEST(LdbStress, BranchAndBoundTreeConservesUnderStealing) {
  constexpr int kNpes = 8;
  const std::uint64_t kBranch = 4;
  // Release: depth 9 -> (4^10 - 1) / 3 = 349525 seeds from one root.
  const std::uint64_t kDepth = ScaleDivisor() == 1 ? 9 : 7;
  TreeState ts;
  SimConfig sim;
  sim.seed = 1234;
  sim.race_detect = false;
  SimReport report;
  sim.report = &report;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.seed = 1234;
  cfg.sim = &sim;
  cfg.aggregate_sends = 0;
  std::vector<CldCounters> counters(kNpes);
  RunConverse(cfg, [&](int pe, int) {
    CldSetStrategy(CldStrategy::kSteal);
    thread_local int h_node = -1;
    h_node = CmiRegisterHandler([&](void* msg) {
      std::uint32_t depth = 0;
      std::memcpy(&depth, CmiMsgPayload(msg), sizeof(depth));
      ts.executed.fetch_add(1, std::memory_order_relaxed);
      CldChargeTime(3.0);
      if (depth > 0) {
        const std::uint32_t child = depth - 1;
        for (std::uint64_t b = 0; b < kBranch; ++b) {
          CldEnqueue(CmiMakeMessage(h_node, &child, sizeof(child)));
        }
      }
      CmiFree(msg);
    });
    if (pe == 0) {
      const auto root = static_cast<std::uint32_t>(kDepth);
      CldEnqueue(CmiMakeMessage(h_node, &root, sizeof(root)));
    }
    CsdScheduler(-1);
    counters[static_cast<size_t>(pe)] = CldGetCounters();
  });
  EXPECT_TRUE(report.quiesced);
  EXPECT_EQ(ts.executed.load(), TreeNodes(kBranch, kDepth));
  CldCounters t;
  for (const CldCounters& c : counters) {
    t.stored += c.stored;
    t.executed_store += c.executed_store;
    t.stolen_out += c.stolen_out;
    t.stolen_in += c.stolen_in;
  }
  EXPECT_EQ(t.stored, t.executed_store + t.stolen_out);
  EXPECT_EQ(t.stolen_in, t.stolen_out);
  EXPECT_GT(t.stolen_in, 0u) << "the tree never spread off PE 0";
}

// ---------------------------------------------------------------------------
// Determinism: same sim seed, same trace, same placements — agg off and on.
// Each aggregation mode is its own test, so neither half waits on the
// other under ctest's per-test time limit.
// ---------------------------------------------------------------------------

class LdbDeterminism : public ::testing::TestWithParam<CldStrategy> {};

namespace {

void ExpectSameSeedSameRun(CldStrategy strategy, int agg) {
  StressCase sc;
  sc.strategy = strategy;
  sc.npes = 6;
  sc.total_seeds = 30000 / static_cast<std::uint64_t>(ScaleDivisor()) * 6;
  sc.waves = 3;
  sc.sim_seed = 77;
  sc.aggregate = agg;
  const StressResult a = RunStress(sc);
  const StressResult b = RunStress(sc);
  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
  EXPECT_EQ(a.report.outcome_hash, b.report.outcome_hash);
  EXPECT_EQ(a.PlacementDigest(), b.PlacementDigest());
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.report.final_virtual_us, b.report.final_virtual_us);
  ExpectConserved(sc, a);
}

}  // namespace

TEST_P(LdbDeterminism, SameSeedSameTraceAndPlacement) {
  ExpectSameSeedSameRun(GetParam(), /*agg=*/0);
}

TEST_P(LdbDeterminism, SameSeedSameTraceAndPlacementAggregated) {
  ExpectSameSeedSameRun(GetParam(), /*agg=*/1);
}

INSTANTIATE_TEST_SUITE_P(Adaptive, LdbDeterminism,
                         ::testing::Values(CldStrategy::kSteal,
                                           CldStrategy::kPeriodic),
                         [](const auto& info) {
                           return info.param == CldStrategy::kSteal
                                      ? "Steal"
                                      : "Periodic";
                         });

// ---------------------------------------------------------------------------
// StealChurn: a real (non-sim) machine hammering the steal protocol with
// bursty cross-PE spawning.  This is the test the TSan CI leg soaks
// (--gtest_repeat): the per-PE balancer state must never be touched off
// its owning PE thread.
// ---------------------------------------------------------------------------

TEST(LdbStress, StealChurn) {
  constexpr int kNpes = 8;
  constexpr int kWaves = 5;
  const int per_wave =
      ScaleDivisor() == 1 ? 500 : 500 / ScaleDivisor() + 50;
  const int total = kNpes * kWaves * per_wave;
  std::atomic<int> done{0};
  ctu::PerPeCounters placed(kNpes);
  RunConverse(kNpes, [&](int pe, int) {
    CldSetStrategy(CldStrategy::kSteal);
    thread_local int h_seed = -1;
    h_seed = CmiRegisterHandler([&, pe](void* msg) {
      placed.Add(pe);
      CmiFree(msg);
      if (done.fetch_add(1) + 1 == total) ConverseBroadcastExit();
    });
    thread_local int h_wave = -1;
    h_wave = CmiRegisterHandler([&, pe](void* msg) {
      int wave = 0;
      std::memcpy(&wave, CmiMsgPayload(msg), sizeof(wave));
      for (int i = 0; i < per_wave; ++i) {
        void* m = CmiMakeMessage(h_seed, &i, sizeof(i));
        CldEnqueue(m);
      }
      if (wave + 1 < kWaves) {
        // Ping-pong the next wave through a neighbor so spawn bursts and
        // steal traffic interleave across the machine.
        int next = wave + 1;
        void* nm = CmiMakeMessage(h_wave, &next, sizeof(next));
        CmiSyncSendAndFree(static_cast<unsigned>((pe + 1) % kNpes),
                           static_cast<unsigned>(CmiMsgTotalSize(nm)), nm);
      }
    });
    int w0 = 0;
    void* m = CmiMakeMessage(h_wave, &w0, sizeof(w0));
    CmiSyncSendAndFree(static_cast<unsigned>(pe),
                       static_cast<unsigned>(CmiMsgTotalSize(m)), m);
    CsdScheduler(-1);
  });
  EXPECT_EQ(done.load(), total);
  EXPECT_EQ(placed.Total(), total);
}

// ---------------------------------------------------------------------------
// CciRace coverage of the steal path (satellite of the race detector): a
// steal request racing the victim's own execution of the same backlog is a
// benign-commutative interleaving, and the detector must say so.
// ---------------------------------------------------------------------------

namespace {

struct StealRaceState {
  std::uint64_t cell = 0;
};

void StealRaceEntry(StealRaceState& st, int mype) {
  CldSetStrategy(CldStrategy::kSteal);
  const int h_seed = CmiRegisterHandler([&st](void* msg) {
    // Commutative shared update: seeds run on whichever PE won them (the
    // victim keeps half, the thief takes the rest), so increments from
    // different PEs are causally unordered — a candidate race whose
    // flipped replay produces the identical outcome.
    CmiRaceNoteWrite(&st.cell, sizeof(st.cell));
    st.cell += 1;
    CldChargeTime(1000.0);
    CmiFree(msg);
  });
  if (mype == 0) {
    CciRaceRegisterNamed(&st.cell, sizeof(st.cell), "steal-shared counter");
    // Exactly one steal round, sized so the victim's store never reaches 2
    // again after the grant.  A replay flip freezes one worker tick, and a
    // probe landing inside that window must still find a sub-stealable
    // store on both sides, or the flipped run grants work the baseline
    // never granted (a genuinely different delivery multiset, reported
    // divergent).  Three seeds: the thief's opening probe takes one, the
    // victim keeps at most two with one already executing.
    for (int i = 0; i < 3; ++i) {
      CldEnqueue(CmiMakeMessage(h_seed, &i, sizeof(i)));
    }
  }
  CsdScheduler(-1);
}

}  // namespace

TEST(LdbStress, StealInterleavingsClassifyBenignCommutative) {
  if (!CciRaceEnabled()) {
    GTEST_SKIP() << "library built without -DCONVERSE_RACE=ON";
  }
  StealRaceState st;
  const char* e = std::getenv("LDB_RACE_SEED");
  const std::uint64_t seed = e != nullptr ? std::strtoull(e, nullptr, 10) : 5;
  SimConfig sim;
  sim.seed = seed;
  MachineConfig cfg;
  // Two PEs: one victim, one thief.  A flipped delivery pair then only
  // reorders two executions of already-assigned seeds; with more PEs the
  // hold window lets third-party probes fire that the baseline never sent,
  // which changes the delivery multiset and misreads as divergent.
  cfg.npes = 2;
  cfg.seed = seed;
  cfg.sim = &sim;
  cfg.aggregate_sends = 0;
  CciRaceOptions opts;
  opts.max_replays = 256;  // confirm every candidate pair, not the first 16
  opts.reset = [&st] { st = StealRaceState{}; };
  const std::vector<CciRaceReport> reports = CciRaceAnalyze(
      cfg, [&st](int pe, int) { StealRaceEntry(st, pe); }, opts);
  ASSERT_FALSE(reports.empty())
      << "stolen seeds never raced the victim's own execution";
  for (const CciRaceReport& rep : reports) {
    EXPECT_EQ(rep.classification, CciRaceClass::kBenignCommutative)
        << rep.object;
  }
}

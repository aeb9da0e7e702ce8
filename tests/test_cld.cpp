// Seed load balancer tests (paper §3.3.1): every strategy — the four
// legacy ones and the two adaptive ones (kSteal, kPeriodic) — must deliver
// every seed exactly once, preserve priorities and FIFO order at placement,
// and keep its hop accounting within the strategy's bound.  Distribution
// properties and protocol counters vary by strategy and get their own
// tests.  The million-seed skewed workloads live in test_ldb_stress.cpp.
#include "test_helpers.h"

#include <cstring>

using namespace converse;

namespace {

const char* StrategyName(CldStrategy s) {
  switch (s) {
    case CldStrategy::kLocal: return "Local";
    case CldStrategy::kRandom: return "Random";
    case CldStrategy::kNeighbor: return "Neighbor";
    case CldStrategy::kCentral: return "Central";
    case CldStrategy::kSteal: return "Steal";
    case CldStrategy::kPeriodic: return "Periodic";
  }
  return "?";
}

constexpr CldStrategy kAllStrategies[] = {
    CldStrategy::kLocal,   CldStrategy::kRandom, CldStrategy::kNeighbor,
    CldStrategy::kCentral, CldStrategy::kSteal,  CldStrategy::kPeriodic,
};

/// Per-PE balancer diagnostics collected after the schedulers returned.
struct SprayDiag {
  explicit SprayDiag(int npes)
      : placed(static_cast<size_t>(npes)), hops(static_cast<size_t>(npes)) {}
  std::vector<std::uint64_t> placed;
  std::vector<std::uint64_t> hops;
  std::vector<CldCounters> counters{placed.size()};

  std::uint64_t PlacedTotal() const {
    std::uint64_t t = 0;
    for (auto v : placed) t += v;
    return t;
  }
  std::uint64_t HopsTotal() const {
    std::uint64_t t = 0;
    for (auto v : hops) t += v;
    return t;
  }
  CldCounters Totals() const {
    CldCounters t;
    for (const CldCounters& c : counters) {
      t.spawned += c.spawned;
      t.placed += c.placed;
      t.forwarded += c.forwarded;
      t.stored += c.stored;
      t.executed_store += c.executed_store;
      t.stolen_out += c.stolen_out;
      t.stolen_in += c.stolen_in;
      t.rebalanced_out += c.rebalanced_out;
      t.msgs_sent += c.msgs_sent;
      t.msgs_received += c.msgs_received;
    }
    return t;
  }
};

/// PE0 creates `nseeds` seeds; each seed records the PE it took root on.
/// Returns per-PE placement counts (and balancer diagnostics, if asked).
void RunSeedSpray(CldStrategy strat, int npes, int nseeds,
                  ctu::PerPeCounters* placed, SprayDiag* diag = nullptr) {
  std::atomic<int> done{0};
  RunConverse(npes, [&](int pe, int n) {
    (void)n;
    CldSetStrategy(strat);
    int work = CmiRegisterHandler([&, pe](void* msg) {
      placed->Add(pe);
      CmiFree(msg);  // placed seeds are handler-owned
      if (done.fetch_add(1) + 1 == nseeds) ConverseBroadcastExit();
    });
    if (pe == 0) {
      for (int i = 0; i < nseeds; ++i) {
        void* m = CmiMakeMessage(work, &i, sizeof(i));
        CldEnqueue(m);
      }
    }
    CsdScheduler(-1);
    if (diag != nullptr) {
      diag->placed[static_cast<size_t>(pe)] = CldSeedsPlaced();
      diag->hops[static_cast<size_t>(pe)] = CldSeedHops();
      diag->counters[static_cast<size_t>(pe)] = CldGetCounters();
    }
  });
}

}  // namespace

class CldStrategies : public ::testing::TestWithParam<CldStrategy> {};

TEST_P(CldStrategies, EverySeedPlacedExactlyOnce) {
  constexpr int kNpes = 4;
  constexpr int kSeeds = 200;
  ctu::PerPeCounters placed(kNpes);
  SprayDiag diag(kNpes);
  RunSeedSpray(GetParam(), kNpes, kSeeds, &placed, &diag);
  EXPECT_EQ(placed.Total(), kSeeds);
  // The balancer's own accounting agrees with the workload's.
  EXPECT_EQ(diag.PlacedTotal(), static_cast<std::uint64_t>(kSeeds));
  EXPECT_EQ(diag.Totals().spawned, static_cast<std::uint64_t>(kSeeds));
}

TEST_P(CldStrategies, HopAccountingStaysWithinStrategyBound) {
  constexpr int kNpes = 4;
  constexpr int kSeeds = 160;
  ctu::PerPeCounters placed(kNpes);
  SprayDiag diag(kNpes);
  RunSeedSpray(GetParam(), kNpes, kSeeds, &placed, &diag);
  std::uint64_t per_seed_cap = 0;
  switch (GetParam()) {
    case CldStrategy::kLocal: per_seed_cap = 0; break;
    case CldStrategy::kRandom: per_seed_cap = 1; break;
    case CldStrategy::kNeighbor: per_seed_cap = 3; break;  // kMaxNeighborHops
    case CldStrategy::kCentral: per_seed_cap = 2; break;  // via dispatcher
    case CldStrategy::kSteal:
    case CldStrategy::kPeriodic:
      per_seed_cap = 64;  // re-steals/re-pushes are possible but bounded in
                          // practice; the cap guards runaway ping-pong
      break;
  }
  EXPECT_LE(diag.HopsTotal(), per_seed_cap * kSeeds);
}

TEST_P(CldStrategies, PrioritizedSeedsKeepPriorityAtPlacement) {
  // Two seeds placed with priorities on one PE: the higher-priority (more
  // negative) one must run first even though enqueued second — for the
  // legacy strategies via the scheduler queue's integer priority, for the
  // adaptive ones via the backlog worker's best-priority-first pop.
  std::vector<int> order;
  const CldStrategy strat = GetParam();
  RunConverse(1, [&](int, int) {
    CldSetStrategy(strat);
    int work = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      order.push_back(v);
      CmiFree(msg);
    });
    int a = 1, b = 2;
    void* ma = CmiMakeMessage(work, &a, sizeof(a));
    CldEnqueuePrio(ma, 10);
    void* mb = CmiMakeMessage(work, &b, sizeof(b));
    CldEnqueuePrio(mb, -10);
    CsdScheduleUntilIdle();
  });
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_P(CldStrategies, UnprioritizedSeedsPlaceInFifoOrder) {
  // On a single PE every strategy degenerates to local placement, and
  // unprioritized seeds must execute in spawn order (scheduler-queue FIFO
  // for the legacy strategies, FIFO-among-equal-priorities in the adaptive
  // backlog).
  constexpr int kSeeds = 32;
  std::vector<int> order;
  const CldStrategy strat = GetParam();
  RunConverse(1, [&](int, int) {
    CldSetStrategy(strat);
    int work = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      order.push_back(v);
      CmiFree(msg);
    });
    for (int i = 0; i < kSeeds; ++i) {
      void* m = CmiMakeMessage(work, &i, sizeof(i));
      CldEnqueue(m);
    }
    CsdScheduleUntilIdle();
  });
  ASSERT_EQ(order.size(), static_cast<size_t>(kSeeds));
  for (int i = 0; i < kSeeds; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CldStrategies,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(Cld, LocalStrategyKeepsEverythingHome) {
  constexpr int kNpes = 3;
  ctu::PerPeCounters placed(kNpes);
  RunSeedSpray(CldStrategy::kLocal, kNpes, 90, &placed);
  EXPECT_EQ(placed.Get(0), 90);
  EXPECT_EQ(placed.Get(1), 0);
  EXPECT_EQ(placed.Get(2), 0);
}

TEST(Cld, RandomStrategySpreadsWork) {
  constexpr int kNpes = 4;
  constexpr int kSeeds = 400;
  ctu::PerPeCounters placed(kNpes);
  RunSeedSpray(CldStrategy::kRandom, kNpes, kSeeds, &placed);
  EXPECT_EQ(placed.Total(), kSeeds);
  for (int i = 0; i < kNpes; ++i) {
    // Uniform spray: each PE gets ~100; allow wide slack (binomial tail).
    EXPECT_GT(placed.Get(i), 50) << "pe " << i;
    EXPECT_LT(placed.Get(i), 170) << "pe " << i;
  }
}

TEST(Cld, CentralStrategyBalancesOutstandingWork) {
  constexpr int kNpes = 4;
  constexpr int kSeeds = 400;
  ctu::PerPeCounters placed(kNpes);
  RunSeedSpray(CldStrategy::kCentral, kNpes, kSeeds, &placed);
  EXPECT_EQ(placed.Total(), kSeeds);
  for (int i = 0; i < kNpes; ++i) {
    // The dispatcher balances outstanding counts: every PE gets a share.
    EXPECT_GT(placed.Get(i), kSeeds / kNpes / 4) << "pe " << i;
  }
}

TEST(Cld, NeighborStrategyRelievesHotSpot) {
  // All seeds originate on PE0 which is kept artificially busy; with load
  // diffusion a nontrivial share must migrate to the ring neighbors.
  constexpr int kNpes = 4;
  constexpr int kSeeds = 256;
  ctu::PerPeCounters placed(kNpes);
  RunSeedSpray(CldStrategy::kNeighbor, kNpes, kSeeds, &placed);
  EXPECT_EQ(placed.Total(), kSeeds);
  EXPECT_LT(placed.Get(0), kSeeds)
      << "diffusion moved nothing off the hot PE";
}

TEST(Cld, SeedsFromMultipleOriginsAllPlaced) {
  constexpr int kNpes = 3;
  constexpr int kSeedsPerPe = 50;
  ctu::PerPeCounters placed(kNpes);
  std::atomic<int> done{0};
  RunConverse(kNpes, [&](int pe, int n) {
    CldSetStrategy(CldStrategy::kRandom);
    int work = CmiRegisterHandler([&, pe, n](void* msg) {
      placed.Add(pe);
      CmiFree(msg);
      if (done.fetch_add(1) + 1 == kSeedsPerPe * n) {
        ConverseBroadcastExit();
      }
    });
    for (int i = 0; i < kSeedsPerPe; ++i) {
      void* m = CmiMakeMessage(work, &i, sizeof(i));
      CldEnqueue(m);
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(placed.Total(), kNpes * kSeedsPerPe);
}

TEST(Cld, PayloadSurvivesFloating) {
  // Seed payloads must arrive intact after forwarding hops.
  constexpr int kNpes = 4;
  constexpr int kSeeds = 64;
  std::atomic<int> correct{0};
  RunConverse(kNpes, [&](int pe, int) {
    (void)pe;
    CldSetStrategy(CldStrategy::kCentral);  // guarantees >= 1 hop usually
    int work = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      if (v >= 1000 && v < 1000 + kSeeds) ++correct;
      CmiFree(msg);
      if (correct.load() == kSeeds) ConverseBroadcastExit();
    });
    if (CmiMyPe() == 1) {  // not the dispatcher: forces a hop to PE0
      for (int i = 0; i < kSeeds; ++i) {
        int payload = 1000 + i;
        void* m = CmiMakeMessage(work, &payload, sizeof(payload));
        CldEnqueue(m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(correct.load(), kSeeds);
}

TEST(Cld, PayloadSurvivesStealing) {
  // Same integrity check through the steal path: seeds are re-packed into a
  // reply message and rebuilt at the thief, so every byte must survive.
  constexpr int kNpes = 4;
  constexpr int kSeeds = 96;
  std::atomic<int> correct{0};
  std::atomic<int> done{0};
  RunConverse(kNpes, [&](int pe, int) {
    (void)pe;
    CldSetStrategy(CldStrategy::kSteal);
    int work = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      if (v >= 5000 && v < 5000 + kSeeds) ++correct;
      CmiFree(msg);
      if (done.fetch_add(1) + 1 == kSeeds) ConverseBroadcastExit();
    });
    if (CmiMyPe() == 0) {
      for (int i = 0; i < kSeeds; ++i) {
        int payload = 5000 + i;
        void* m = CmiMakeMessage(work, &payload, sizeof(payload));
        CldEnqueue(m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(correct.load(), kSeeds);
}

TEST(Cld, LegacyStrategiesStayInertOnAdaptiveState) {
  // The adaptive machinery must cost the legacy strategies nothing: no
  // backlog traffic, no steal or rebalance counters, ever.
  constexpr int kNpes = 4;
  ctu::PerPeCounters placed(kNpes);
  SprayDiag diag(kNpes);
  RunSeedSpray(CldStrategy::kRandom, kNpes, 120, &placed, &diag);
  const CldCounters t = diag.Totals();
  EXPECT_EQ(t.stored, 0u);
  EXPECT_EQ(t.executed_store, 0u);
  EXPECT_EQ(t.stolen_out, 0u);
  EXPECT_EQ(t.stolen_in, 0u);
  EXPECT_EQ(t.rebalanced_out, 0u);
}

TEST(Cld, StealCountersConserve) {
  // A single-origin backlog with virtual per-seed cost under the sim: the
  // other PEs go idle, probe, and steal.  The backlog must drain exactly
  // and every stolen seed must land (clean schedule).
  constexpr int kNpes = 4;
  constexpr int kSeeds = 300;
  SprayDiag diag(kNpes);
  std::atomic<int> done{0};
  SimConfig sim;
  sim.seed = 11;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.seed = 11;
  cfg.sim = &sim;
  cfg.aggregate_sends = 0;  // explicit: ignore any CONVERSE_AGG in the env
  RunConverse(cfg, [&](int pe, int) {
    CldSetStrategy(CldStrategy::kSteal);
    int work = CmiRegisterHandler([&](void* msg) {
      done.fetch_add(1);
      CldChargeTime(5.0);  // virtual occupancy: keeps a backlog alive
      CmiFree(msg);
    });
    if (pe == 0) {
      for (int i = 0; i < kSeeds; ++i) {
        void* m = CmiMakeMessage(work, &i, sizeof(i));
        CldEnqueue(m);
      }
    }
    CsdScheduler(-1);  // sim exits on global quiescence
    diag.placed[static_cast<size_t>(pe)] = CldSeedsPlaced();
    diag.hops[static_cast<size_t>(pe)] = CldSeedHops();
    diag.counters[static_cast<size_t>(pe)] = CldGetCounters();
  });
  EXPECT_EQ(done.load(), kSeeds);
  const CldCounters t = diag.Totals();
  EXPECT_EQ(t.stored, t.executed_store + t.stolen_out);
  EXPECT_EQ(t.stolen_in, t.stolen_out);
  EXPECT_GT(t.stolen_in, 0u) << "no steal ever happened";
  EXPECT_EQ(diag.PlacedTotal(), static_cast<std::uint64_t>(kSeeds));
}

TEST(Cld, CentralBurstSpreadsEvenly) {
  // Regression for the dispatcher's stale-estimate bug: drain-report
  // remainders below the reporting period used to stick in outstanding[]
  // forever, and PE 0's own slot was never measured at decision time.
  // With idle-time remainder flushes and a fresh own-slot estimate, a
  // bursty single-origin workload must spread within +/-20% of even —
  // deterministically, under the sim.
  constexpr int kNpes = 4;
  constexpr int kBursts = 25;
  constexpr int kPerBurst = 40;
  constexpr int kTotal = kBursts * kPerBurst;
  ctu::PerPeCounters placed(kNpes);
  SimConfig sim;
  sim.seed = 23;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.seed = 23;
  cfg.sim = &sim;
  cfg.aggregate_sends = 0;  // explicit: ignore any CONVERSE_AGG in the env
  RunConverse(cfg, [&](int pe, int) {
    CldSetStrategy(CldStrategy::kCentral);
    thread_local int work = -1;
    work = CmiRegisterHandler([&, pe](void* msg) {
      placed.Add(pe);
      CldChargeTime(2.0);
      CmiFree(msg);
    });
    thread_local int burst = -1;
    burst = CmiRegisterHandler([&](void* msg) {
      int b;
      std::memcpy(&b, CmiMsgPayload(msg), sizeof(b));
      for (int i = 0; i < kPerBurst; ++i) {
        void* m = CmiMakeMessage(work, &i, sizeof(i));
        CldEnqueue(m);
      }
      if (b + 1 < kBursts) {
        int next = b + 1;
        void* nm = CmiMakeMessage(burst, &next, sizeof(next));
        CmiSyncSendDelayedAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(nm)),
                                  nm, 2000.0);  // idle gap between bursts
      }
    });
    if (pe == 0) {
      int b0 = 0;
      void* m = CmiMakeMessage(burst, &b0, sizeof(b0));
      CmiSyncSendDelayedAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(m)),
                                m, 1.0);
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(placed.Total(), kTotal);
  const long even = kTotal / kNpes;
  for (int i = 0; i < kNpes; ++i) {
    EXPECT_GE(placed.Get(i), even * 8 / 10) << "pe " << i;
    EXPECT_LE(placed.Get(i), even * 12 / 10) << "pe " << i;
  }
}

TEST(Cld, DiagnosticsCount) {
  RunConverse(1, [&](int, int) {
    CldSetStrategy(CldStrategy::kLocal);
    int work = CmiRegisterHandler([](void* msg) { CmiFree(msg); });
    for (int i = 0; i < 5; ++i) {
      CldEnqueue(CmiMakeMessage(work, nullptr, 0));
    }
    EXPECT_EQ(CldSeedsPlaced(), 5u);
    CsdScheduler(5);
  });
}

TEST(LdbFuzz, PlantedLostStealReplyIsCaughtAndShrunk) {
  ldb::LdbFuzzParams p;
  p.plant_lost_steal_reply = true;
  const ldb::LdbFuzzResult r = ldb::RunLdbFuzzCase(p);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("conservation"), std::string::npos) << r.failure;

  const auto& w = ldb::LdbFuzzWorkload();
  const ldb::LdbFuzzParams small = w.Minimize(p);
  EXPECT_FALSE(ldb::RunLdbFuzzCase(small).ok);
  // The shrinker pins the strategy the failing run resolved (the plant
  // forces kSteal) instead of leaving the -1 draw to re-roll it.
  EXPECT_EQ(small.strategy, static_cast<int>(CldStrategy::kSteal));
  EXPECT_LT(small.seeds_per_pe, p.seeds_per_pe);
  EXPECT_EQ(w.FormatReplay(small),
            "tools/simfuzz --ldb --seed 1 --pes 4 --strategy 4 --lseeds 8 "
            "--waves 2 --prio-frac 0 --plant-lost-steal-reply");
}

class LdbReplay : public ::testing::TestWithParam<double> {};

TEST_P(LdbReplay, ParseOfFormatReplayIsIdentity) {
  const double x = GetParam();
  ldb::LdbFuzzParams p;
  p.seed = 1234567890123ull;
  p.npes = 3;
  p.strategy = 2;
  p.seeds_per_pe = 17;
  p.waves = 3;
  p.prio_fraction = x;
  p.faults.drop = x;
  p.faults.dup = x / 3;
  p.faults.delay = 1 - x;
  p.faults.reorder = x * x;
  p.plant_lost_steal_reply = true;
  const auto& w = ldb::LdbFuzzWorkload();
  EXPECT_EQ(ctu::ParseReplay(w, w.FormatReplay(p)), p) << w.FormatReplay(p);
}

INSTANTIATE_TEST_SUITE_P(Doubles, LdbReplay, ctu::kReplayDoubles);

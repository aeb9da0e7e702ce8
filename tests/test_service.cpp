// Service-runtime tests (converse/svc.h) under the deterministic sim:
// exact virtual-time latency quantiles, seed-stable traces, overload
// shedding with bounded admitted-request latency, CmiStats mirroring, and
// the conservation-oracle fuzz layer (clean seeds pass, the planted
// lost-reply bug is caught and shrunk).
#include "converse/svc.h"

#include "test_helpers.h"

#include <vector>

#include "converse/cmi.h"
#include "converse/machine.h"
#include "converse/netmodel.h"
#include "converse/sim.h"

using namespace converse;
using namespace converse::svc;

namespace {

struct RunOut {
  SimReport report;
  SvcPeStats totals;
  std::vector<SvcPeStats> per_pe;
  std::vector<CmiStats> cmi;  // per-PE snapshot at entry exit
};

RunOut RunService(const SvcConfig& cfg, const SvcLoad& load, int npes,
                  std::uint64_t sim_seed, const SimFaults* faults = nullptr,
                  const NetModel* model = nullptr) {
  RunOut out;
  Service s(cfg, npes);
  SimConfig sim;
  sim.seed = sim_seed;
  if (faults != nullptr) sim.faults = *faults;
  sim.report = &out.report;
  MachineConfig m;
  m.npes = npes;
  m.seed = sim_seed;
  m.sim = &sim;
  m.model = model;
  m.aggregate_sends = 0;
  out.cmi.resize(static_cast<std::size_t>(npes));
  RunConverse(m, [&](int pe, int) {
    s.Start();
    s.GenerateLoad(load);
    s.Serve();
    out.cmi[static_cast<std::size_t>(pe)] = CmiGetStats();
  });
  out.totals = s.Total();
  for (int pe = 0; pe < npes; ++pe) out.per_pe.push_back(s.PeStats(pe));
  return out;
}

}  // namespace

TEST(Service, ExactVirtualTimeLatencyWithoutQueueing) {
  // Offered rate three orders of magnitude below capacity, fixed service
  // time, uniform arrivals: no request ever waits, so every latency is
  // EXACTLY the 5 us service time in virtual nanoseconds — min, max, sum,
  // and every quantile.
  SvcConfig cfg;
  cfg.sessions = 64;
  cfg.workers = 2;
  cfg.service_time_us = 5.0;
  SvcLoad load;
  load.rate_per_pe = 1000.0;  // 1000 us gaps >> 5 us service
  load.requests_per_pe = 50;
  load.arrival = Arrival::kUniform;
  const RunOut r = RunService(cfg, load, 2, 42);

  const SvcPeStats& t = r.totals;
  EXPECT_TRUE(r.report.quiesced);
  EXPECT_EQ(t.requests_sent, 100u);
  EXPECT_EQ(t.requests_received, 100u);
  EXPECT_EQ(t.admitted, 100u);
  EXPECT_EQ(t.completed, 100u);
  EXPECT_EQ(t.replies_received, 100u);
  EXPECT_EQ(t.shed_queue + t.shed_deadline, 0u);
  EXPECT_EQ(t.timers_fired, t.timers_sent);

  ASSERT_EQ(t.latency_ns.Count(), 100u);
  EXPECT_EQ(t.latency_ns.Min(), 5000u);
  EXPECT_EQ(t.latency_ns.Max(), 5000u);
  EXPECT_EQ(t.latency_ns.Sum(), 500000u);
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(t.latency_ns.Quantile(q), 5000u) << "q=" << q;
  }
}

TEST(Service, NetModelLatencyIsExactPerOwnerLocality) {
  // Under a fixed-alpha model, a request to a remote owner costs exactly
  // request + reply network hops (2 * alpha) on top of the service time; a
  // request whose owner is the client's own PE costs the service time
  // alone (self-sends never cross the modeled network).  With npes = 2,
  // both kinds occur, so min and max pin both constants exactly.
  NetModel net;
  net.name = "svc-exact";
  net.alpha_us = 7.0;
  SvcConfig cfg;
  cfg.sessions = 64;
  cfg.workers = 2;
  cfg.service_time_us = 5.0;
  SvcLoad load;
  load.rate_per_pe = 500.0;
  load.requests_per_pe = 40;
  load.arrival = Arrival::kUniform;
  const RunOut r = RunService(cfg, load, 2, 3, nullptr, &net);

  const SvcPeStats& t = r.totals;
  ASSERT_EQ(t.latency_ns.Count(), 80u);
  EXPECT_EQ(t.latency_ns.Min(), 5000u);             // local owner
  EXPECT_EQ(t.latency_ns.Max(), 5000u + 14000u);    // remote: 2 * 7 us
  EXPECT_EQ(t.latency_ns.Quantile(1.0), 19000u);
}

TEST(Service, SameSeedSameTraceAndQuantiles) {
  SvcConfig cfg;
  cfg.sessions = 32;
  cfg.workers = 3;
  cfg.service_time_us = 4.0;
  cfg.exp_service = true;
  cfg.queue_cap = 8;
  SvcLoad load;
  load.rate_per_pe = 150000.0;
  load.requests_per_pe = 200;
  load.arrival = Arrival::kPoisson;
  load.seed = 9;
  const RunOut a = RunService(cfg, load, 3, 9);
  const RunOut b = RunService(cfg, load, 3, 9);

  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
  EXPECT_EQ(a.report.events, b.report.events);
  EXPECT_EQ(a.report.final_virtual_us, b.report.final_virtual_us);
  EXPECT_EQ(a.totals.completed, b.totals.completed);
  EXPECT_EQ(a.totals.shed_queue, b.totals.shed_queue);
  EXPECT_EQ(a.totals.latency_ns.Count(), b.totals.latency_ns.Count());
  EXPECT_EQ(a.totals.latency_ns.Sum(), b.totals.latency_ns.Sum());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.totals.latency_ns.Quantile(q),
              b.totals.latency_ns.Quantile(q))
        << "q=" << q;
  }
  // A different schedule seed (same workload) is a different interleaving.
  const RunOut c = RunService(cfg, load, 3, 10);
  EXPECT_NE(a.report.trace_hash, c.report.trace_hash);
}

TEST(Service, OverloadShedsAtAdmissionAndBoundsAdmittedLatency) {
  // Offered load 2x capacity (10 us service, 2 workers => 200k/s per PE;
  // offered 400k/s per PE).  The queue cap must shed the excess at
  // admission, and because an admitted request can have at most
  // queue_cap - 1 requests queued ahead plus `workers` in service, its
  // latency is bounded by a small multiple of the service time — overload
  // degrades throughput, never admitted-request tails.
  SvcConfig cfg;
  cfg.sessions = 64;
  cfg.workers = 2;
  cfg.service_time_us = 10.0;
  cfg.queue_cap = 4;
  SvcLoad load;
  load.rate_per_pe = 400000.0;
  load.requests_per_pe = 400;
  load.arrival = Arrival::kPoisson;
  load.seed = 5;
  const RunOut r = RunService(cfg, load, 2, 5);

  const SvcPeStats& t = r.totals;
  EXPECT_TRUE(r.report.quiesced);
  EXPECT_EQ(t.requests_received, 800u);
  EXPECT_EQ(t.requests_received, t.admitted + t.shed_queue);
  EXPECT_EQ(t.admitted, t.completed + t.shed_deadline);
  EXPECT_EQ(t.shed_deadline, 0u);  // no deadline configured
  EXPECT_GT(t.shed_queue, 0u);     // 2x overload must shed
  EXPECT_EQ(t.replies_received, t.completed);
  EXPECT_EQ(t.shed_notices_received, t.shed_queue);
  // Wait bound: (queue_cap - 1) queued ahead + workers in service, drained
  // by `workers` threads, plus own service time.
  const std::uint64_t bound_ns =
      static_cast<std::uint64_t>(cfg.service_time_us * 1000.0) *
      ((cfg.queue_cap - 1 + cfg.workers) / cfg.workers + 2);
  EXPECT_LE(t.latency_ns.Max(), bound_ns);
  EXPECT_LE(t.latency_ns.Quantile(0.99), bound_ns);
}

TEST(Service, CmiStatsMirrorServiceCounters) {
  SvcConfig cfg;
  cfg.sessions = 48;
  cfg.workers = 2;
  cfg.service_time_us = 6.0;
  cfg.queue_cap = 3;
  SvcLoad load;
  load.rate_per_pe = 300000.0;
  load.requests_per_pe = 150;
  load.seed = 2;
  const RunOut r = RunService(cfg, load, 3, 2);

  std::uint64_t admitted = 0, shed = 0, completed = 0;
  for (const CmiStats& s : r.cmi) {
    admitted += s.svc_admitted;
    shed += s.svc_shed;
    completed += s.svc_completed;
  }
  EXPECT_EQ(admitted, r.totals.admitted);
  EXPECT_EQ(shed, r.totals.shed_queue + r.totals.shed_deadline);
  EXPECT_EQ(completed, r.totals.completed);
  // Per-PE breakdown agrees too, not just the totals: each PE's CmiStats
  // mirror exactly its own slot of the service counters.
  for (std::size_t pe = 0; pe < 3; ++pe) {
    const CmiStats& s = r.cmi[pe];
    const SvcPeStats& p = r.per_pe[pe];
    EXPECT_EQ(s.svc_admitted, p.admitted) << "pe " << pe;
    EXPECT_EQ(s.svc_shed, p.shed_queue + p.shed_deadline) << "pe " << pe;
    EXPECT_EQ(s.svc_completed, p.completed) << "pe " << pe;
  }
}

TEST(Service, DeadlineShedsStaleRequestsAtDequeue) {
  // Deadline shorter than the queueing delay under overload: requests that
  // sat too long are shed at dequeue with a notice, and everything still
  // balances.
  SvcConfig cfg;
  cfg.sessions = 32;
  cfg.workers = 1;
  cfg.service_time_us = 10.0;
  cfg.queue_cap = 16;
  cfg.deadline_us = 25.0;
  SvcLoad load;
  load.rate_per_pe = 300000.0;
  load.requests_per_pe = 200;
  load.arrival = Arrival::kBurst;
  load.burst = 8;
  load.seed = 4;
  const RunOut r = RunService(cfg, load, 2, 4);

  const SvcPeStats& t = r.totals;
  EXPECT_GT(t.shed_deadline, 0u);
  EXPECT_EQ(t.requests_received, t.admitted + t.shed_queue);
  EXPECT_EQ(t.admitted, t.completed + t.shed_deadline);
  EXPECT_EQ(t.shed_notices_received, t.shed_queue + t.shed_deadline);
  // No completed request can have exceeded the deadline: it would have
  // been shed at dequeue instead.
  EXPECT_LE(t.latency_ns.Max(),
            static_cast<std::uint64_t>(
                (cfg.deadline_us + cfg.service_time_us) * 1000.0));
}

// ---------------------------------------------------------------------------
// The conservation-oracle fuzz layer (tools/simfuzz --service).
// ---------------------------------------------------------------------------

TEST(ServiceFuzz, CleanSeedsSatisfyAllOracles) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SvcFuzzParams p;
    p.seed = seed;
    const SvcFuzzResult r = RunSvcFuzzCase(p);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    EXPECT_TRUE(r.report.quiesced);
    EXPECT_GT(r.totals.completed, 0u);
  }
}

TEST(ServiceFuzz, FaultedSeedsStillConserve) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SvcFuzzParams p;
    p.seed = seed;
    p.faults.drop = 0.08;
    p.faults.dup = 0.05;
    p.faults.delay = 0.1;
    p.faults.reorder = 0.05;
    const SvcFuzzResult r = RunSvcFuzzCase(p);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    // Replay determinism under faults.
    const SvcFuzzResult again = RunSvcFuzzCase(p);
    EXPECT_EQ(r.report.trace_hash, again.report.trace_hash);
    EXPECT_EQ(r.totals.completed, again.totals.completed);
  }
}

TEST(ServiceFuzz, PlantedLostReplyIsCaughtAndShrunk) {
  SvcFuzzParams p;
  p.seed = 7;
  p.plant_lost_reply = true;
  const SvcFuzzResult r = RunSvcFuzzCase(p);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("conservation"), std::string::npos) << r.failure;

  const auto& w = SvcFuzzWorkload();
  const SvcFuzzParams small = w.Minimize(p);
  EXPECT_FALSE(RunSvcFuzzCase(small).ok);
  EXPECT_LE(small.requests_per_pe, p.requests_per_pe);
  EXPECT_LE(small.npes, p.npes);
  // The replay line round-trips the shrunk parameters.
  const std::string replay = w.FormatReplay(small);
  EXPECT_NE(replay.find("--service"), std::string::npos);
  EXPECT_NE(replay.find("--plant-lost-reply"), std::string::npos);
  EXPECT_EQ(ctu::ParseReplay(w, replay), small) << replay;
}

class ServiceReplay : public ::testing::TestWithParam<double> {};

TEST_P(ServiceReplay, ParseOfFormatReplayIsIdentity) {
  const double x = GetParam();
  SvcFuzzParams p;
  p.seed = 1234567890123ull;
  p.npes = 3;
  p.sessions = 17;
  p.workers = 2;
  p.requests_per_pe = 11;
  p.rate_per_pe = x * 1e6;
  p.queue_cap = 5;
  p.faults.drop = x;
  p.faults.dup = x / 3;
  p.faults.delay = 1 - x;
  p.faults.reorder = x * x;
  p.plant_lost_reply = true;
  const auto& w = SvcFuzzWorkload();
  EXPECT_EQ(ctu::ParseReplay(w, w.FormatReplay(p)), p) << w.FormatReplay(p);
}

INSTANTIATE_TEST_SUITE_P(Doubles, ServiceReplay, ctu::kReplayDoubles);

TEST(ServiceFuzz, PlantedBugCaughtEvenUnderFaults) {
  // The total-conservation oracle corrects for injected drops/dups using
  // the injector's exact counts, so a silently lost reply is still an
  // imbalance the oracle sees.
  SvcFuzzParams p;
  p.seed = 3;
  p.plant_lost_reply = true;
  p.faults.drop = 0.05;
  p.faults.delay = 0.1;
  const SvcFuzzResult r = RunSvcFuzzCase(p);
  EXPECT_FALSE(r.ok);
}

// Dynamic (seed) load balancing (paper §3.3.1).
//
// A language runtime hands over a "seed" — a generalized message for a
// piece of work that can execute on any PE.  The load balancing module
// moves seeds from processor to processor until it hands the seed to its
// handler on some destination PE ("the seeds ... can float around the
// system until they take root").  The interface to the strategy is fixed;
// multiple strategies are provided and the application links/selects the
// one it wants — the paper's need-based-cost rule applied to balancing.
//
// The four legacy strategies deliver a placed seed by enqueueing it into
// the scheduler queue with the strategy recorded in its header (so
// prioritized seeds stay prioritized).  The two adaptive strategies
// (kSteal, kPeriodic) instead keep seeds in a per-PE stealable backlog
// outside the scheduler queue until execution — priorities are preserved
// because a per-PE worker always executes the best-priority seed next, and
// the backlog stays movable: idle PEs steal half of it (kSteal) and
// overloaded PEs push their excess toward the running average on a
// virtual-clock timer (kPeriodic).  Either way the seed's handler owns its
// message when it finally runs.
//
// Determinism: under the deterministic sim backend (converse/sim.h) every
// adaptive decision — victim choice, steal grant, rebalance move — draws
// from PRNGs seeded by the machine/sim seed and is folded into the sim's
// event-trace hash, so the same seed replays the same placements
// bit-for-bit (docs/TESTING.md, "Load-balancer fuzzing").
#pragma once

#include <cstdint>
#include <string>

#include "converse/sim.h"

namespace converse {

enum class CldStrategy : std::int32_t {
  kLocal = 0,     // never move seeds (baseline)
  kRandom = 1,    // spray each seed to a uniformly random PE
  kNeighbor = 2,  // diffuse along a ring using exchanged load estimates
  kCentral = 3,   // PE 0 dispatches to the least-loaded PE
  kSteal = 4,     // idle PEs steal half of a victim's stealable backlog
  kPeriodic = 5,  // measurement-based: push excess toward the average on a
                  // virtual-clock timer (plain machines piggyback the pass
                  // on worker execution instead)
};

inline constexpr int kCldStrategyCount = 6;

/// Select the strategy.  Must be called identically on every PE before any
/// seed is created (typically at the top of the entry function).
void CldSetStrategy(CldStrategy strategy);
CldStrategy CldGetStrategy();

/// Hand a seed to the balancer.  Takes ownership of `msg` (a complete
/// message whose handler is the seed's "take root" handler).  The seed will
/// eventually be enqueued into some PE's scheduler queue (legacy
/// strategies) or executed by that PE's backlog worker (adaptive ones).
void CldEnqueue(void* msg);

/// Prioritized seed (integer priority, smaller first).
void CldEnqueuePrio(void* msg, std::int32_t prio);

/// This PE's load estimate used by the strategies: scheduler queue length
/// plus the stealable backlog (the latter is zero for legacy strategies).
int CldLoad();

/// Diagnostics: seeds that took root on this PE / hops observed here.
std::uint64_t CldSeedsPlaced();
std::uint64_t CldSeedHops();

/// Declare, from inside a seed handler, that the seed consumed `us`
/// microseconds of machine time.  On a timed machine (sim backend or a
/// NetModel) the adaptive strategies' backlog worker defers its next seed
/// by that much virtual time, so backlogs, steals, and the virtual-time
/// makespan model real occupancy — the mechanism the million-seed stress
/// suite and benchmarks/ldb_strategies.cpp measure balancing quality with.
/// On a plain machine (where real time passes inside the handler) and
/// under the four legacy strategies this only accrues into the busy-time
/// diagnostic below.
void CldChargeTime(double us);

/// Total microseconds charged via CldChargeTime on this PE.
double CldBusyTimeUs();

/// Per-PE balancer counters, single-writer like CmiStats (read from the
/// owning PE, or from the entry after the schedulers returned).  These are
/// the quantities the conservation oracles in simfuzz --ldb balance.
struct CldCounters {
  std::uint64_t spawned = 0;      // seeds handed to CldEnqueue* here
  std::uint64_t placed = 0;       // seeds that took root (executed) here
  std::uint64_t forwarded = 0;    // seeds sent to another PE, any reason
  std::uint64_t stored = 0;       // seeds pushed into the stealable backlog
  std::uint64_t executed_store = 0;  // backlog seeds executed by the worker
  std::uint64_t stolen_out = 0;   // seeds packed into steal replies here
  std::uint64_t stolen_in = 0;    // seeds unpacked from steal replies here
  std::uint64_t rebalanced_out = 0;  // seeds pushed by a rebalance tick
  std::uint64_t msgs_sent = 0;    // balancer wire messages sent from here
                                  // (floating seeds, steal protocol,
                                  // status/drain/sample/worker-tick)
  std::uint64_t msgs_received = 0;  // balancer wire messages delivered here
};
CldCounters CldGetCounters();

/// Planted bug for the simfuzz --ldb conservation-oracle self-test: every
/// Nth non-empty steal reply this PE grants is silently freed instead of
/// sent, losing the seeds packed inside (0 = off, the default).  Must be
/// set identically on every PE before seeds are created.
void CldSetLoseStealReplyEvery(std::uint32_t n);

// ---------------------------------------------------------------------------
// Load-balancer fuzzing (tools/simfuzz --ldb): one seeded skewed workload
// under the deterministic sim, checked against conservation oracles.
// ---------------------------------------------------------------------------

namespace ldb {

struct LdbFuzzParams {
  std::uint64_t seed = 1;
  int npes = 4;
  /// Strategy under test, 0..5 (CldStrategy values); -1 draws one from the
  /// seed so a sweep cycles through all six.
  int strategy = -1;
  std::uint64_t seeds_per_pe = 64;  // seeds spawned by each spawning PE
  int waves = 4;                    // spawn bursts (virtual-time separated)
  double prio_fraction = 0.25;      // fraction of seeds given priorities
  SimFaults faults;
  /// Plant the lost-steal-reply bug (CldSetLoseStealReplyEvery(3)) so the
  /// oracles demonstrably catch and shrink it; forces strategy kSteal.
  bool plant_lost_steal_reply = false;

  bool operator==(const LdbFuzzParams&) const = default;
};

struct LdbFuzzResult {
  bool ok = false;
  std::string failure;  // first violated oracle (empty when ok)
  SimReport report;
  CldCounters totals;         // balancer counters summed over PEs
  std::uint64_t spawned = 0;  // workload seeds created
  std::uint64_t executed = 0; // workload seeds whose handler ran
  int strategy = 0;           // resolved CldStrategy value of the run
};

/// Run one deterministic balancer case and check the oracles:
///  * the run ends by global quiescence (no stuck PE, no stranded seed);
///  * the stealable backlog drains exactly: stored == executed_store +
///    stolen_out + rebalanced_out, and steal-reply seed counts balance on
///    clean schedules (stolen_in == stolen_out);
///  * total message conservation: balancer + workload wire messages
///    received == sent - dropped + duplicated (the injector's exact
///    counts), under any fault mix;
///  * on clean schedules, seed conservation: every spawned seed executes
///    exactly once (spawned == placed == executed) — this is the oracle
///    that catches plant_lost_steal_reply.
LdbFuzzResult RunLdbFuzzCase(const LdbFuzzParams& params);

/// The simfuzz --ldb workload: its flag table, shrink rules (strategy
/// pinned to the failing run's, then fewer seeds, waves and PEs, no
/// priorities, each fault dimension off) and runner; see converse/fuzz.h.
const fuzz::Workload<LdbFuzzParams, LdbFuzzResult>& LdbFuzzWorkload();

}  // namespace ldb
}  // namespace converse

// -- module registration anchor ------------------------------------------------
// Including this header registers the module's per-PE init hook during
// static initialization, so handler indices are identical on every PE of
// any machine started afterwards (see converse/detail/module.h).  The
// anonymous-namespace anchor is deliberate: one idempotent call per TU.
namespace converse::detail {
int CldModuleRegister();
}  // namespace converse::detail
namespace {
[[maybe_unused]] const int cld_module_anchor = converse::detail::CldModuleRegister();
}  // namespace

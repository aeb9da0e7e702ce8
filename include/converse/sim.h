// Deterministic simulation backend for the in-process machine.
//
// Almost every interesting bug in a message-driven runtime is an
// interleaving or message-ordering bug, which wall-clock, really-threaded
// tests can neither reproduce nor shrink.  Attaching a SimConfig to a
// MachineConfig turns the machine into a deterministic simulator: the PE
// threads still exist, but a coordinator serializes them so exactly one
// runs at a time, every scheduling choice (who runs next, delivery order,
// timed arrival) is drawn from a single seeded PRNG, and time is virtual —
// it advances only when every PE is blocked, jumping straight to the next
// modeled arrival.  The same seed therefore replays the same event order
// bit-for-bit, captured in a trace hash.  A MachineConfig with a NetModel
// and no SimConfig runs on a default SimConfig: the sim is the only
// backend that applies modeled latency.
//
// A fault injector on the inter-PE send path can drop, duplicate, delay,
// or reorder regular messages with configured probabilities (immediate-lane
// messages and local scheduler enqueues are never faulted: they are the
// reliable control plane).  On top of the backend, converse::sim provides a
// property-based fuzz workload with invariant oracles and a failing-seed
// minimizer; see tools/simfuzz and docs/TESTING.md.
#pragma once

#include <cstdint>
#include <string>

namespace converse {

/// Fault-injection probabilities, each in [0, 1), applied independently to
/// every regular inter-PE message at send time.  Messages a PE sends to
/// itself are exempt (they never cross a network), as are immediate-lane
/// messages and local scheduler enqueues — together they form the reliable
/// control plane that timers and shutdown protocols can build on.
struct SimFaults {
  double drop = 0.0;     // message silently freed, never delivered
  double dup = 0.0;      // an identical copy (same header seq) also arrives
  double delay = 0.0;    // extra virtual latency, uniform in [0, delay_max_us]
  double reorder = 0.0;  // message held back past the sender's next message
                         // to the same destination (per-sender FIFO broken)
  double delay_max_us = 500.0;
  /// Stop injecting after this many faults (bounds lost messages so fuzz
  /// workloads still make progress under high probabilities).
  std::uint64_t max_faults = UINT64_MAX;

  bool Any() const {
    return drop > 0 || dup > 0 || delay > 0 || reorder > 0;
  }
};

/// Counters filled into SimConfig::report when the machine tears down.
/// msgs_dropped / msgs_duplicated count LOGICAL messages: a faulted wire
/// message that is an aggregation frame or a spanning-tree broadcast
/// carrier (converse/stream.h) is weighted by the logical messages it
/// carries, so the conservation law delivered == sent - dropped +
/// duplicated holds whether or not aggregation is on.  faults_injected
/// counts injection events (one per faulted wire message), matching
/// SimFaults::max_faults.
struct SimReport {
  std::uint64_t trace_hash = 0;   // FNV-1a over the ordered event stream
  std::uint64_t events = 0;       // hashed events (send/deliver/switch/...)
  std::uint64_t context_switches = 0;  // PE-to-PE baton handoffs
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t msgs_delayed = 0;
  std::uint64_t msgs_reordered = 0;
  std::uint64_t faults_injected = 0;  // injection events (wire messages)
  std::uint64_t agg_frames = 0;       // aggregation frames sent machine-wide
  std::uint64_t agg_msgs_batched = 0; // messages that rode inside frames
  double final_virtual_us = 0.0;  // virtual clock at teardown
  bool quiesced = false;          // the quiescence exit fired at least once
  /// Order-insensitive digest of the logical deliveries: a commutative
  /// (wrapping) sum over one hash per delivery of (pe, handler, payload
  /// size, payload CRC).  Header bytes are excluded so per-sender seq
  /// reassignment under a flipped schedule does not pollute it.  Two runs
  /// with equal outcome_hash performed the same multiset of deliveries —
  /// the comparison CciRace's replay confirmation classifies by.
  std::uint64_t outcome_hash = 0;
  /// True when SimConfig::flip found and flipped its target pair.
  bool flip_applied = false;
};

/// A delivery-order flip for CciRace replay confirmation: hold the wire
/// message (hold_src, hold_seq) back at its send until the wire message
/// (until_src, until_seq) has been delivered, then release it — the two
/// deliveries' order is exactly inverted relative to the baseline run.
/// If the until-delivery never happens, the held message is released at
/// quiescence and the report's flip_applied stays false (unreplayable).
struct SimFlip {
  bool enabled = false;
  int hold_src = -1;
  std::uint32_t hold_seq = 0;
  int until_src = -1;
  std::uint32_t until_seq = 0;
};

/// Attach to MachineConfig::sim to run that machine deterministically.
struct SimConfig {
  /// Seed for every simulator choice (schedule, faults).  Replaying with
  /// the same seed and the same workload reproduces the same event order.
  std::uint64_t seed = 1;

  SimFaults faults;

  /// When every PE is blocked with no pending or future message (global
  /// quiescence), raise the exit flag on all PEs so CsdScheduler(-1) loops
  /// return — the simulated analogue of "the program went idle".  A PE that
  /// blocks again without making progress afterwards is a genuine deadlock
  /// and aborts the machine with a diagnostic.  When false, quiescence
  /// itself is reported as a deadlock.
  bool exit_on_quiescence = true;

  /// Test-only toggle: deliberately violate per-sender FIFO (same hold-back
  /// mechanism as the reorder fault but *not* recorded as a fault), so the
  /// invariant oracles can demonstrate catching a planted ordering bug.
  bool plant_reorder_bug = false;

  /// Optional out-param, filled when the machine finishes.
  SimReport* report = nullptr;

  /// Run the CciRace happens-before detector on this machine (only
  /// meaningful when the library was built with CONVERSE_RACE_ENABLED;
  /// see converse/race.h).
  bool race_detect = true;

  /// Suppress CciRace candidate printing (CciRaceAnalyze sets this for its
  /// replay runs, which re-detect the baseline's candidates).
  bool race_quiet = false;

  /// Delivery-order flip for CciRace replay confirmation.
  SimFlip flip;
};

namespace sim {

/// Parameters of one randomized fuzz workload run (see src/sim/fuzz.cpp):
/// random handler graphs exercising sends, broadcasts, immediate messages,
/// Cmm put/probe/get, thread suspend/resume, and priority enqueues, checked
/// against invariant oracles.
struct FuzzParams {
  std::uint64_t seed = 1;
  int npes = 4;
  int actions = 48;  // root ops injected per PE (each fans out by TTL)
  int threads = 2;   // Cth threads per PE doing suspend/resume traffic
  SimFaults faults;
  bool plant_reorder_bug = false;
  /// Run with small-message aggregation on (MachineConfig::aggregate_sends
  /// = 1): adds aggregated send bursts and explicit CmiFlush calls to the
  /// action mix, and the oracles see through frames.
  bool aggregate = false;
};

struct FuzzResult {
  bool ok = false;
  std::string failure;  // first violated invariant (empty when ok)
  SimReport report;
};

/// Run one deterministic fuzz case and check every invariant oracle:
///  * immediate-lane and local-enqueue messages are never lost, duplicated,
///    or reordered (they are never faulted);
///  * regular-message conservation: delivered == sent - dropped + duplicated;
///  * per-sender FIFO per destination whenever no configured fault can
///    legally reorder (dup/delay/reorder all zero) — this is the oracle
///    that catches plant_reorder_bug;
///  * no duplicate delivery when dup == 0;
///  * Cmm tag/wildcard retrievals match a naive reference mailbox;
///  * the run ends by global quiescence (no stuck PE).
FuzzResult RunFuzzCase(const FuzzParams& params);

/// Shrink a failing case: greedily try fewer actions, fewer threads, fewer
/// PEs, and disabled fault dimensions (at most `budget` deterministic
/// re-runs), keeping every reduction that still fails.  Returns the
/// smallest still-failing parameters (the input itself if nothing smaller
/// fails).
FuzzParams Minimize(const FuzzParams& failing, int budget = 64);

/// One-line replay command for a parameter set, e.g.
/// "CONVERSE_SIM_SEED=7 tools/simfuzz --pes 3 --actions 12 --plant-bug".
std::string FormatReplay(const FuzzParams& params);

/// Parameters of one CciRace fuzz run (simfuzz --race): seeded token
/// chains hop between PEs writing per-chain registered cells (causally
/// ordered, so a sound detector must stay silent), optionally with a
/// planted unordered pair on a shared cell.
struct RaceFuzzParams {
  std::uint64_t seed = 1;
  int npes = 4;
  int chains = 5;  // independent causal chains (never racy)
  int hops = 6;    // cross-PE hops per chain
  /// 0 = no plant; 1 = divergent pair (order-sensitive updates echoed to
  /// the root — must classify confirmed-divergent); 2 = benign pair
  /// (commutative increments — must classify benign-commutative).
  int plant = 0;
};

struct RaceFuzzResult {
  bool ok = false;
  std::string failure;  // first violated expectation (empty when ok)
  int candidates = 0;
  int divergent = 0;
  int benign = 0;
  int unreplayable = 0;
};

/// True when the library was built with the race detector compiled in;
/// RunRaceFuzzCase fails fast otherwise.
bool RaceFuzzAvailable();

/// Run one race-detection fuzz case through CciRaceAnalyze and check the
/// expectations for its plant mode: no plant -> zero candidates; plant 1
/// -> at least one confirmed-divergent; plant 2 -> at least one
/// benign-commutative and zero divergent.
RaceFuzzResult RunRaceFuzzCase(const RaceFuzzParams& params);

/// One-line replay command, e.g. "tools/simfuzz --race --seed 7 --pes 4".
std::string FormatRaceReplay(const RaceFuzzParams& params);

}  // namespace sim
}  // namespace converse

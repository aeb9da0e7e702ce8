// Request/response service runtime (the first macro workload).
//
// The paper's thesis is that the Converse primitives — scheduler, Cth
// threads, Cmm mailboxes — compose into whole client paradigms.  This layer
// is that claim applied to the north-star scenario: a service with many
// concurrent sessions, bounded tail latency, and graceful overload behavior.
//
// Shape: session ids are sharded across PEs (owner = session % npes).  A
// client stamps each request with its send time and an optional deadline
// and sends it to the owner PE.  There an admission stage either refuses it
// immediately (per-PE queue-depth cap — the shed notice goes straight back)
// or parks it in a Cmm mailbox; a pool of Cth worker threads drains the
// mailbox, sheds requests whose deadline has already passed, spends the
// configured service time per request (virtual time under the sim backend,
// CPU spinning on a real machine), updates the session's state, and sends
// the reply.  The client records completed-request latency into a
// log-bucketed histogram (converse/util/histogram.h) that merges across
// PEs.
//
// Load is generated open-loop: arrival times are a function of the offered
// rate alone, never of replies, so offered rates above capacity actually
// overload the server instead of self-throttling.  Under the sim backend
// the generator is a chain of delayed self-sends (virtual-time exact and
// deterministic: same seed => same event-trace hash); on a real machine it
// paces against the wall clock while polling the scheduler.
//
// tests/test_service.cpp pins exact virtual-time quantiles, simfuzz
// --service checks request conservation under fault injection, and
// benchmarks/bench_service.cpp measures p50/p99/p999 against offered rate
// (BENCH_service.json).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "converse/sim.h"
#include "converse/util/histogram.h"

namespace converse::svc {

/// Arrival process of the open-loop generator.
enum class Arrival : std::uint8_t {
  kUniform,  // fixed gap 1/rate: the analytic baseline
  kPoisson,  // exponential gaps (classic open-loop service model)
  kBurst,    // `burst` back-to-back requests every burst/rate seconds
};

struct SvcConfig {
  std::uint64_t sessions = 1024;  // global session-id space (sharded by PE)
  int workers = 4;                // Cth worker threads per PE
  double service_time_us = 2.0;   // per-request service time
  bool exp_service = false;       // exponential service times (mean as above)
  std::uint32_t queue_cap = 64;   // admission cap on queued requests per PE
  double deadline_us = 0.0;       // shed a request older than this at
                                  // dequeue time (0 = no deadline)
  std::uint32_t payload_bytes = 32;  // request padding beyond the header
  /// Planted bug for the conservation-oracle self-test: every Nth completed
  /// request silently skips its reply send (0 = off).
  std::uint32_t lose_reply_every = 0;
  unsigned hist_sub_bits = util::LogHistogram::kDefaultSubBits;
};

struct SvcLoad {
  double rate_per_pe = 100000.0;      // offered requests/s per client PE
  std::uint64_t requests_per_pe = 1000;
  Arrival arrival = Arrival::kPoisson;
  std::uint32_t burst = 8;            // burst size for Arrival::kBurst
  std::uint64_t seed = 1;             // per-PE generator PRNG streams
};

/// Per-PE counters plus the client-side latency histogram.  Single-writer:
/// each PE touches only its own slot; read them after RunConverse returns.
struct SvcPeStats {
  // Client side.
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_received = 0;       // completed requests
  std::uint64_t shed_notices_received = 0;  // refused requests
  // Server side (mirrored into CmiStats::svc_admitted/svc_shed/
  // svc_completed for this PE).
  std::uint64_t requests_received = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue = 0;     // refused at admission (queue-depth cap)
  std::uint64_t shed_deadline = 0;  // shed at dequeue (deadline passed)
  std::uint64_t completed = 0;      // replies sent
  // Internal timer traffic (delayed self-sends: generator ticks, service
  // clocks).  Self-sends are never faulted, so fired == sent always.
  std::uint64_t timers_sent = 0;
  std::uint64_t timers_fired = 0;
  util::LogHistogram latency_ns{util::LogHistogram::kDefaultSubBits};
};

/// One service instance spanning every PE of one machine run.  Construct it
/// before RunConverse; inside the entry each PE calls Start(), then
/// GenerateLoad() (no-op when requests_per_pe is 0), then Serve(), which
/// runs the scheduler until the run completes — by global quiescence under
/// the sim backend, by an explicit all-PEs-drained exit broadcast otherwise
/// — and finally winds down the worker threads.
class Service {
 public:
  Service(const SvcConfig& cfg, int npes);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  void Start();
  void GenerateLoad(const SvcLoad& load);
  void Serve();

  const SvcConfig& config() const { return cfg_; }
  int npes() const { return npes_; }

  /// Per-PE stats (valid once RunConverse returned).
  const SvcPeStats& PeStats(int pe) const;
  /// Every PE's counters summed and histograms merged.
  SvcPeStats Total() const;

  struct PerPe;  // internal (src/svc/svc.cpp)

 private:
  SvcConfig cfg_;
  int npes_;
  std::vector<std::unique_ptr<PerPe>> pes_;
};

/// Owner PE of a session id.
inline int SessionOwner(std::uint64_t session, int npes) {
  return static_cast<int>(session % static_cast<std::uint64_t>(npes));
}

// ---------------------------------------------------------------------------
// Service fuzzing (tools/simfuzz --service): one seeded service run under
// the deterministic sim, checked against the request-conservation oracles.
// ---------------------------------------------------------------------------

struct SvcFuzzParams {
  std::uint64_t seed = 1;
  int npes = 4;
  std::uint64_t sessions = 64;
  int workers = 3;
  std::uint64_t requests_per_pe = 48;
  double rate_per_pe = 200000.0;  // virtual-time offered rate per PE
  std::uint32_t queue_cap = 8;
  SimFaults faults;
  /// Plant the lost-reply bug (SvcConfig::lose_reply_every = 5) so the
  /// conservation oracle demonstrably catches and shrinks it.
  bool plant_lost_reply = false;

  bool operator==(const SvcFuzzParams&) const = default;
};

struct SvcFuzzResult {
  bool ok = false;
  std::string failure;  // first violated oracle (empty when ok)
  SimReport report;
  SvcPeStats totals;    // merged service counters of the run
};

/// Run one deterministic service case and check the oracles:
///  * the run ends by global quiescence (no stuck PE, no wedged worker);
///  * server bookkeeping balances exactly, under any fault mix:
///    requests_received == admitted + shed_queue, and
///    admitted == completed + shed_deadline;
///  * timer conservation: timers_fired == timers_sent (self-sends are
///    exempt from fault injection);
///  * total message conservation: every service message received equals
///    messages sent corrected by the injector's exact drop/dup counts;
///  * with no faults enabled, end-to-end conservation — every request
///    arrives, and every admitted request yields exactly one reply or one
///    shed notice at the client (this is the oracle that catches
///    plant_lost_reply).
SvcFuzzResult RunSvcFuzzCase(const SvcFuzzParams& params);

/// The simfuzz --service workload: its flag table, shrink rules (fewer
/// requests, workers, PEs and sessions, then each fault dimension off) and
/// runner; see converse/fuzz.h.
const fuzz::Workload<SvcFuzzParams, SvcFuzzResult>& SvcFuzzWorkload();

}  // namespace converse::svc

// Shared pieces of the repository benchmark: options, clocks, sampled
// spans, payload stamping and checking, round control, and the result
// ledger every workload fills in.  See README.md in this directory for
// the metric catalogue and why each workload exists.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "converse/converse.h"

namespace perfbench {

// ---- options ------------------------------------------------------------

enum class Plant { kNone, kDrop, kDup, kReorder, kCorrupt };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Plant plant = Plant::kNone;
};

// ---- clocks -------------------------------------------------------------

/// CLOCK_MONOTONIC in nanoseconds: one clock for every thread and for both
/// processes of the wire workload, so send stamps compare across them.
std::uint64_t NowNs();
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Process user+sys CPU seconds (RUSAGE_SELF).
double ProcessCpuS();

/// Peak resident set of this process in MiB (ru_maxrss).
double PeakRssMb();

std::uint64_t Mix(std::uint64_t x);  // splitmix64 finaliser

/// Fixed-size uniform sample of a stream (Algorithm R).  Its storage is
/// allocated in full on the first Add, so how long a run lasts does not
/// change the peak RSS the benchmark reports.
template <class T>
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed)
      : cap_(cap), rng_(Mix(seed) | 1) {}
  void Add(const T& x) {
    if (buf_.empty()) buf_.resize(cap_);
    std::uint64_t slot = seen_;
    if (seen_ >= cap_) {
      rng_ ^= rng_ << 13;  // xorshift64
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      slot = rng_ % (seen_ + 1);
    }
    if (slot < cap_) buf_[slot] = x;
    ++seen_;
  }
  std::uint64_t Seen() const { return seen_; }
  const T* begin() const { return buf_.data(); }
  const T* end() const {
    return buf_.data() + (seen_ < cap_ ? seen_ : cap_);
  }

 private:
  std::size_t cap_;
  std::vector<T> buf_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

// ---- spans --------------------------------------------------------------

/// Layer boundaries the traced run records.  Each is a sampled span around
/// one public call (or, for kDwell, from the send stamp to handler entry).
enum SpanKind : std::uint8_t {
  kSpanSend,       // machine: CmiSyncSendAndFree
  kSpanDwell,      // machine: send stamp -> receiving handler entry
  kSpanAlloc,      // msg: CmiMakeMessage
  kSpanFree,       // msg: CmiFree of a delivered message
  kSpanEnqueue,    // sched: CsdEnqueue
  kSpanFlush,      // stream: CmiFlush
  kSpanAllReduce,  // collectives: CmiAllReduceF64
  kSpanHandler,    // benchmark handler body (receiver busy time)
  kNumSpanKinds
};
const char* SpanName(SpanKind kind);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t id = 0;  // (source pe << 32 | seq) for message spans
  std::uint32_t dur_ns = 0;
  std::uint16_t pe = 0;
  std::uint8_t kind = 0;
};

/// Spans kept in memory: a reservoir per kind (so rare spans such as
/// all-reduces are not crowded out by per-message ones), the number
/// recorded and their summed duration.  Written out once, at exit.
class Tracer {
 public:
  static constexpr std::size_t kKept = 8192;
  /// Every kSampleEvery-th message is timed.
  static constexpr std::uint32_t kSampleEvery = 64;

  Tracer();
  void Add(SpanKind kind, int pe, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t id = 0);
  void AddSpan(const Span& s);
  const Reservoir<Span>& Kept(SpanKind kind) const { return kept_[kind]; }
  std::uint64_t Count(SpanKind kind) const { return recorded_[kind]; }
  /// Summed duration of every recorded span of `kind`, in seconds.
  double BusyS(SpanKind kind) const { return busy_ns_[kind] * 1e-9; }
  /// Add another tracer's counts and durations, and its kept spans.
  void Merge(const Tracer& other);
  /// Count `n` spans of `kind` recorded elsewhere and not kept here.
  void AddUnkept(SpanKind kind, std::uint64_t n) { recorded_[kind] += n; }

 private:
  std::vector<Reservoir<Span>> kept_;
  std::array<std::uint64_t, kNumSpanKinds> recorded_{};
  std::array<double, kNumSpanKinds> busy_ns_{};
};

// ---- payloads -----------------------------------------------------------

/// First 32 payload bytes of every benchmark data message.  The rest of
/// the payload holds check words derived from `check`.
struct Stamp {
  std::uint32_t src = 0;
  std::uint32_t seq = 0;    // per (src, dst, stream) FIFO sequence number
  std::uint32_t round = 0;  // round (step) the message belongs to
  std::uint32_t flags = 0;  // kLastOfRound, stream id in the high byte
  std::uint64_t sent_ns = 0;  // send stamp; 0 when the message is unsampled
  std::uint64_t check = 0;    // hash of (seed, src, dst, seq, round, size)
};
static_assert(sizeof(Stamp) == 32);
inline constexpr std::uint32_t kLastOfRound = 1;

std::uint64_t CheckOf(std::uint64_t seed, std::uint32_t src, std::uint32_t dst,
                      std::uint32_t seq, std::uint32_t round,
                      std::uint32_t flags, std::size_t payload);

/// Fill a payload of `payload` bytes (>= sizeof(Stamp)).  Large payloads
/// get at most 64 check words spread evenly over the body.
void FillPayload(void* payload, std::size_t bytes, const Stamp& st);
/// True when the payload matches what FillPayload wrote for its stamp and
/// the stamp's check matches the (seed, dst, size) the receiver expects.
bool PayloadOk(const void* payload, std::size_t bytes, std::uint64_t seed,
               std::uint32_t dst);

// ---- statistics ---------------------------------------------------------

double Quantile(std::vector<double> v, double q);  // q in [0,1]; 0 if empty
double Median(const std::vector<double>& v);

// ---- round control ------------------------------------------------------

/// What the next round does.  PE 0 decides from its wall clock and ships
/// the decision to every PE inside the round-ending all-reduce, so the
/// two processes of the wire workload agree without shared memory.
enum Mode : int { kWarmup = 0, kPlain = 1, kTraced = 2, kStop = 3 };

/// After the warm-up, an untraced run measures plain rounds only; a traced
/// run alternates plain and traced rounds, so that the tracing overhead is
/// not confounded with drift over the life of a machine.
struct Schedule {
  double warm_end = 0, end = 0;
  bool alternate = false;
  bool traced_last = false;
  void Start(const Options& o);
  Mode Next(double now);
};

/// Counters read when a PE changes mode.
struct Snapshot {
  bool valid = false;
  double wall_s = 0, cpu_s = 0;
  converse::CmiStats stats{};
  converse::CmiMemoryStats mem{};
};

/// Counter deltas summed over every stretch of rounds a PE spent in one
/// mode.  CPU and pool counters are process-wide and only filled on rank 0.
struct ModeTotals {
  double wall_s = 0, cpu_s = 0;
  converse::CmiStats stats{};
  converse::CmiMemoryStats mem{};
};

/// Per-PE state shared by all workloads.  One per PE, cache-line aligned.
struct alignas(64) PeCtx {
  int pe = 0, npes = 0;
  std::uint64_t seed = 0;
  Mode mode = kWarmup;
  std::uint32_t round = 0;
  bool waiting = false;  // inside our own CsdScheduler(-1)
  bool marker_seen = false;
  int marker_handler = -1;

  // correctness ledger
  std::uint64_t sent = 0, failed = 0;
  std::vector<std::uint32_t> seq_out, seq_in;  // indexed by peer * streams
  std::int64_t round_cnt[2] = {0, 0};   // sent - received, by round parity
  std::int64_t round_hash[2] = {0, 0};  // sum of 16-bit check hashes
  int lasts[2] = {0, 0};                // kLastOfRound messages seen

  // planted fault
  Plant plant = Plant::kNone;
  std::uint64_t plant_at = 0;  // index of the data message to fault
  void* held = nullptr;        // reorder: message held back one send

  // timing
  // Per-kind sampling counters, started out of phase so that one message
  // is not timed at every boundary at once (which would bias the busy
  // time of sampled handlers upwards by the cost of the other spans).
  std::array<std::uint32_t, kNumSpanKinds> ticks{0, 37, 13, 50, 26, 3, 44, 19};
  Tracer tr;
  Reservoir<double> lat_us{1 << 16, 1};  // e2e latency, plain rounds
  double wait_s_traced = 0;    // blocked on flow control, traced rounds
  Snapshot since;              // taken when the current mode began
  ModeTotals totals[4];        // indexed by Mode

  void Init(int pe_, int npes_, const Options& o, int streams);
  bool Tracing() const { return mode == kTraced; }
  /// True on every kSampleEvery-th call per span kind in traced rounds.
  bool Sample(SpanKind k) {
    return Tracing() && (ticks[k]++ % Tracer::kSampleEvery) == 0;
  }
};

/// Times a benchmark handler body on sampled messages (receiver busy).
class HandlerTimer {
 public:
  explicit HandlerTimer(PeCtx& c)
      : c_(c), on_(c.Sample(kSpanHandler)), t0_(on_ ? NowNs() : 0) {}
  ~HandlerTimer() {
    if (on_) c_.tr.Add(kSpanHandler, c_.pe, t0_, NowNs());
  }
  HandlerTimer(const HandlerTimer&) = delete;
  HandlerTimer& operator=(const HandlerTimer&) = delete;

 private:
  PeCtx& c_;
  bool on_;
  std::uint64_t t0_;
};

/// Build, stamp and send one data message of `payload` bytes from the
/// calling PE.  Applies the planted fault when this is message plant_at.
void SendData(PeCtx& c, int handler, int dst, int stream, int streams,
              std::size_t payload, bool last);

/// Record the dwell span of a sampled message at handler entry.
void NoteDwell(PeCtx& c, const void* msg);

/// Receive-side checks for one delivered data message (FIFO, checksum,
/// round accounting), then free it.  `own` is true for a queue-delivered
/// message the handler owns (its dwell was noted when it arrived);
/// otherwise the message is system-owned: its dwell is noted here and it
/// is grabbed before the free.  Returns the stamp.
Stamp ReceiveData(PeCtx& c, void* msg, int streams, bool own);

/// Register the drain-marker handler; call on every PE in the same order.
void RegisterMarker(PeCtx& c);

/// End the current round on this PE: drain the local scheduler queue
/// (sched), flush open frames (stream), then join the all-reduce that
/// checks conservation (collectives).  Returns the next mode; PE 0 passes
/// the mode it chose in `decide`.
Mode EndRound(PeCtx& c, Mode decide);

/// Close the current mode's stretch on this PE (adding its counter deltas
/// to c.totals) and start `next`.
void SwitchMode(PeCtx& c, Mode next, bool process_wide);

/// Block in the scheduler until `done()` holds (handlers call
/// WakeIfWaiting when they may have made it true).
template <class Pred>
void WaitUntil(PeCtx& c, Pred done) {
  while (!done()) {
    c.waiting = true;
    converse::CsdScheduler(-1);
    c.waiting = false;
  }
}
inline void WakeIfWaiting(PeCtx& c) {
  if (c.waiting) converse::CsdExitScheduler();
}

// ---- results ------------------------------------------------------------

/// One round as seen by PE 0.
struct RoundRec {
  Mode mode = kWarmup;
  double round_s = 0;  // whole round, all-reduce included
  double data_s = 0;   // data phase (excludes the round-ending collective)
  double msgs = 0;     // data messages delivered in the data phase
  double bytes = 0;    // payload bytes counted by bytes_per_s
  double bytes_s = 0;  // time over which `bytes` moved
};

/// Everything a workload measured; turned into the JSON result by main.
struct Ledger {
  Reservoir<RoundRec> rounds{1 << 16, 2};
  std::array<double, 4> msgs_by_mode{};    // exact, indexed by Mode
  std::array<double, 4> rounds_by_mode{};  // exact, indexed by Mode
  void AddRound(const RoundRec& r) {
    rounds.Add(r);
    msgs_by_mode[r.mode] += r.msgs;
    rounds_by_mode[r.mode] += 1;
  }
  // Latency: each machine's quantiles, so one machine's bad placement
  // moves at most its own entry (the reported value is their median).
  std::vector<double> lat_p50, lat_p99;
  std::uint64_t lat_seen = 0;      // latency observations made
  std::uint64_t lat_min_kept = 0;  // fewest samples one machine kept
  std::uint64_t attempted = 0, failed = 0;

  // end-to-end inputs
  std::vector<double> setup_s;  // one per empty machine started
  double rss_peak_mb = 0;
  int rss_machines = 0;  // machines rss_peak_mb rests on
  double cpu_s_plain = 0, msgs_plain = 0;

  // per-layer inputs
  Tracer spans;
  double wall_traced_s = 0;
  double wait_s_traced = 0;  // summed over the PEs that wait
  int waiting_pes = 1;
  double busy_s_traced = 0;
  int busy_pes = 1;
  converse::CmiStats stats_traced{};  // summed over PEs
  converse::CmiMemoryStats mem_traced{};
  double msgs_traced = 0;
  double floor_bytes_per_s = 0;  // raw socketpair (wire only)
};

void AddStats(converse::CmiStats& acc, const converse::CmiStats& a,
              const converse::CmiStats& b);  // acc += b - a
void AddMem(converse::CmiMemoryStats& acc, const converse::CmiMemoryStats& a,
            const converse::CmiMemoryStats& b);  // acc += b - a, counters

/// Machines started back to back in one run.  Which cores the OS gives a
/// machine's threads, and how the other tenants of the host load them,
/// shifts a whole machine's rate; pooling the rounds of several machines
/// keeps that shift from deciding a run's median.
int Instances(const Options& o, double machine_s);

/// Fold one PE's context into the ledger once its machine has ended:
/// attempts, failures, latency samples, spans and traced-segment stats.
void FoldPe(Ledger& led, const PeCtx& c);
/// Close one machine's latency samples (`kept` of the `seen` its PEs
/// observed) into its p50/p99 entries.
void FoldLatency(Ledger& led, std::vector<double> kept, std::uint64_t seen);
/// Fold the process-wide totals a rank-0 PE took (CPU, pool counters,
/// traced wall time).
void FoldProcess(Ledger& led, const PeCtx& rank0);
/// Sum the data messages of plain and traced rounds; `extra_per_round`
/// counts messages a round moves beyond RoundRec::msgs.
void CountRoundMessages(Ledger& led, double extra_per_round);

// ---- host / config descriptor -------------------------------------------

int UsableCpus();
std::string DescribeHost();
std::string DescribeConfig(const converse::MachineConfig& cfg);

/// Relative rendezvous directory for socket machines, inside the build
/// directory of the checkout (short enough for sun_path).
std::string MakeRendezvousDir();
void RemoveRendezvousDir(const std::string& dir, int nnodes);

// ---- workloads ----------------------------------------------------------

converse::MachineConfig FaninConfig();
converse::MachineConfig PingpongConfig();
converse::MachineConfig ExchangeConfig();
converse::MachineConfig WireConfig(int mynode, const std::string& rdv);

Ledger RunFanin(const Options& o);
Ledger RunPingpong(const Options& o);
Ledger RunExchange(const Options& o);
Ledger RunWire(const Options& o);

/// Set-up samples taken before each measured machine.  Spread over the
/// whole run rather than taken in one burst, so that setup_s follows the
/// host over the same span as every other metric.
inline constexpr int kSetupRepsInproc = 16;
inline constexpr int kSetupRepsWire = 8;

/// Time `reps` starts + tear-downs of an empty in-process machine.
void TimeInprocSetup(const converse::MachineConfig& cfg, int reps,
                     std::vector<double>& out);

}  // namespace perfbench

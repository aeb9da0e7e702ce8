// Shared benchmark machinery: clocks, spans, payload checks, round control
// and the host/config descriptor.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace converse;

std::uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans --------------------------------------------------------------

const char* SpanName(SpanKind kind) {
  static const char* const kNames[kNumSpanKinds] = {
      "machine.send", "machine.dwell",      "msg.alloc",
      "msg.free",     "sched.enqueue",      "stream.flush",
      "collectives.allreduce", "bench.handler"};
  return kNames[kind];
}

Tracer::Tracer() {
  for (int k = 0; k < kNumSpanKinds; ++k) {
    kept_.emplace_back(kKept, static_cast<std::uint64_t>(k) + 11);
  }
}

void Tracer::Add(SpanKind kind, int pe, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t id) {
  Span s;
  s.start_ns = start_ns;
  s.id = id;
  s.dur_ns = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(end_ns - start_ns, 0xffffffffu));
  s.pe = static_cast<std::uint16_t>(pe);
  s.kind = kind;
  AddSpan(s);
}

void Tracer::AddSpan(const Span& s) {
  kept_[s.kind].Add(s);
  ++recorded_[s.kind];
  busy_ns_[s.kind] += s.dur_ns;
}

void Tracer::Merge(const Tracer& other) {
  // Kept spans join this reservoir one by one; counts and durations add.
  for (int k = 0; k < kNumSpanKinds; ++k) {
    for (const Span& s : other.kept_[k]) kept_[k].Add(s);
    recorded_[k] += other.recorded_[k];
    busy_ns_[k] += other.busy_ns_[k];
  }
}

// ---- payloads -----------------------------------------------------------

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t CheckOf(std::uint64_t seed, std::uint32_t src, std::uint32_t dst,
                      std::uint32_t seq, std::uint32_t round,
                      std::uint32_t flags, std::size_t payload) {
  std::uint64_t h = Mix(seed ^ (static_cast<std::uint64_t>(src) << 40) ^
                        (static_cast<std::uint64_t>(dst) << 20) ^ flags);
  h = Mix(h ^ (static_cast<std::uint64_t>(round) << 32) ^ seq);
  return Mix(h ^ payload);
}

namespace {

// Check words live at a stride that keeps at most 64 of them per payload.
std::size_t WordStride(std::size_t body_words) {
  return std::max<std::size_t>(1, body_words / 64);
}

std::uint64_t Word(std::uint64_t check, std::size_t i) {
  return check ^ (0xd6e8feb86659fd93ull * (i + 1));
}

}  // namespace

void FillPayload(void* payload, std::size_t bytes, const Stamp& st) {
  std::memcpy(payload, &st, sizeof(st));
  auto* body = static_cast<unsigned char*>(payload) + sizeof(Stamp);
  const std::size_t words = (bytes - sizeof(Stamp)) / 8;
  const std::size_t stride = WordStride(words);
  for (std::size_t i = 0; i < words; i += stride) {
    const std::uint64_t w = Word(st.check, i);
    std::memcpy(body + i * 8, &w, 8);
  }
}

bool PayloadOk(const void* payload, std::size_t bytes, std::uint64_t seed,
               std::uint32_t dst) {
  if (bytes < sizeof(Stamp)) return false;
  Stamp st;
  std::memcpy(&st, payload, sizeof(st));
  if (st.check !=
      CheckOf(seed, st.src, dst, st.seq, st.round, st.flags, bytes)) {
    return false;
  }
  const auto* body = static_cast<const unsigned char*>(payload) + sizeof(Stamp);
  const std::size_t words = (bytes - sizeof(Stamp)) / 8;
  const std::size_t stride = WordStride(words);
  for (std::size_t i = 0; i < words; i += stride) {
    std::uint64_t w = 0;
    std::memcpy(&w, body + i * 8, 8);
    if (w != Word(st.check, i)) return false;
  }
  return true;
}

// ---- statistics ---------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- round control ------------------------------------------------------

void Schedule::Start(const Options& o) {
  const double t0 = NowS();
  warm_end = t0 + std::min(1.0, 0.1 * o.seconds);
  end = t0 + o.seconds;
  alternate = o.trace;
  traced_last = false;
}

Mode Schedule::Next(double now) {
  if (now < warm_end) return kWarmup;
  if (now >= end) return kStop;
  if (!alternate) return kPlain;
  traced_last = !traced_last;
  return traced_last ? kTraced : kPlain;
}

void PeCtx::Init(int pe_, int npes_, const Options& o, int streams) {
  pe = pe_;
  npes = npes_;
  seed = o.seed;
  seq_out.assign(static_cast<std::size_t>(npes * streams), 0);
  seq_in.assign(static_cast<std::size_t>(npes * streams), 0);
  plant = o.plant;
}

namespace {

constexpr double kCntScale = 4294967296.0;        // 2^32
constexpr double kCodeScale = 281474976710656.0;  // 2^48

void SendRaw(PeCtx& c, int dst, void* m, bool sampled) {
  const std::uint64_t t0 = sampled ? NowNs() : 0;
  CmiSyncSendAndFree(static_cast<unsigned>(dst),
                     static_cast<unsigned>(CmiMsgTotalSize(m)), m);
  if (sampled) c.tr.Add(kSpanSend, c.pe, t0, NowNs());
}

}  // namespace

void SendData(PeCtx& c, int handler, int dst, int stream, int streams,
              std::size_t payload, bool last) {
  const bool sampled = c.Sample(kSpanAlloc);
  const std::uint64_t t0 = sampled ? NowNs() : 0;
  void* m = CmiMakeMessage(handler, nullptr, payload);
  if (sampled) c.tr.Add(kSpanAlloc, c.pe, t0, NowNs());

  const std::size_t idx = static_cast<std::size_t>(dst * streams + stream);
  Stamp st;
  st.src = static_cast<std::uint32_t>(c.pe);
  st.seq = c.seq_out[idx]++;
  st.round = c.round;
  st.flags = (last ? kLastOfRound : 0u) | (static_cast<std::uint32_t>(stream) << 24);
  st.check = CheckOf(c.seed, st.src, static_cast<std::uint32_t>(dst), st.seq,
                     st.round, st.flags, payload);
  FillPayload(CmiMsgPayload(m), payload, st);
  if (c.Sample(kSpanDwell)) {
    const std::uint64_t now = NowNs();
    std::memcpy(static_cast<char*>(CmiMsgPayload(m)) +
                    offsetof(Stamp, sent_ns),
                &now, sizeof(now));
  }

  const std::uint64_t index = c.sent++;
  const int r = static_cast<int>(c.round & 1);
  ++c.round_cnt[r];
  c.round_hash[r] += static_cast<std::int64_t>(st.check & 0xffff);

  if (c.plant != Plant::kNone && index == c.plant_at) {
    switch (c.plant) {
      case Plant::kDrop:  // counted as sent, never sent
        CmiFree(m);
        return;
      case Plant::kDup:
        SendRaw(c, dst,
                CmiMakeMessage(handler, CmiMsgPayload(m), payload), false);
        break;
      case Plant::kCorrupt:
        static_cast<unsigned char*>(CmiMsgPayload(m))[sizeof(Stamp)] ^= 0x5a;
        break;
      case Plant::kReorder:  // held back behind the next message
        c.held = m;
        return;
      case Plant::kNone:
        break;
    }
  }
  SendRaw(c, dst, m, c.Sample(kSpanSend));
  if (c.held != nullptr && index == c.plant_at + 1) {
    void* h = c.held;
    c.held = nullptr;
    SendRaw(c, dst, h, false);
  }
}

void NoteDwell(PeCtx& c, const void* msg) {
  Stamp st;
  std::memcpy(&st, CmiMsgPayload(msg), sizeof(st));
  if (st.sent_ns != 0) {
    c.tr.Add(kSpanDwell, c.pe, st.sent_ns, NowNs(),
             (static_cast<std::uint64_t>(st.src) << 32) | st.seq);
  }
}

Stamp ReceiveData(PeCtx& c, void* msg, int streams, bool own) {
  const std::size_t bytes = CmiMsgPayloadSize(msg);
  Stamp st;
  if (bytes < sizeof(Stamp)) {  // not one of ours: count it, drop it
    ++c.failed;
    if (!own) CmiGrabBuffer(&msg);
    CmiFree(msg);
    return st;
  }
  std::memcpy(&st, CmiMsgPayload(msg), sizeof(st));
  if (!own) NoteDwell(c, msg);
  bool ok = PayloadOk(CmiMsgPayload(msg), bytes, c.seed,
                      static_cast<std::uint32_t>(c.pe));
  const std::size_t idx = static_cast<std::size_t>(st.src) * streams +
                          (st.flags >> 24);
  if (st.src >= static_cast<std::uint32_t>(c.npes) ||
      idx >= c.seq_in.size()) {
    ok = false;
  } else {
    std::uint32_t& expect = c.seq_in[idx];
    if (st.seq != expect) ok = false;  // lost, duplicated or reordered
    if (st.seq >= expect) expect = st.seq + 1;
  }
  if (!ok) ++c.failed;
  const int r = static_cast<int>(st.round & 1);
  --c.round_cnt[r];
  c.round_hash[r] -= static_cast<std::int64_t>(st.check & 0xffff);
  if (st.flags & kLastOfRound) ++c.lasts[r];

  if (!own) CmiGrabBuffer(&msg);
  const bool sampled = c.Sample(kSpanFree);
  const std::uint64_t t0 = sampled ? NowNs() : 0;
  CmiFree(msg);
  if (sampled) c.tr.Add(kSpanFree, c.pe, t0, NowNs());
  return st;
}

void RegisterMarker(PeCtx& c) {
  c.marker_handler = CmiRegisterHandler([&c](void* m) {
    CmiFree(m);  // queue-delivered: the handler owns it
    c.marker_seen = true;
    WakeIfWaiting(c);
  });
}

Mode EndRound(PeCtx& c, Mode decide) {
  const bool traced = c.Tracing();
  // sched: everything already queued on this PE runs before the marker.
  void* marker = CmiMakeMessage(c.marker_handler, nullptr, 0);
  std::uint64_t t0 = NowNs();
  CsdEnqueue(marker);
  if (traced) c.tr.Add(kSpanEnqueue, c.pe, t0, NowNs());
  c.marker_seen = false;
  WaitUntil(c, [&c] { return c.marker_seen; });

  // stream: nothing of this round may sit in an open frame.
  t0 = NowNs();
  CmiFlush();
  if (traced) c.tr.Add(kSpanFlush, c.pe, t0, NowNs());

  // collectives: conservation of this round's messages and hashes, with
  // PE 0's decision for the next round riding in the high bits.
  const int r = static_cast<int>(c.round & 1);
  double v = static_cast<double>(c.round_cnt[r]) * kCntScale +
             static_cast<double>(c.round_hash[r]);
  c.round_cnt[r] = 0;
  c.round_hash[r] = 0;
  c.lasts[r] = 0;
  if (c.pe == 0) v += static_cast<double>(decide) * kCodeScale;
  t0 = NowNs();
  const double res = CmiAllReduceF64(v, CmiReducerSumF64());
  if (traced) c.tr.Add(kSpanAllReduce, c.pe, t0, NowNs());
  const double code = std::floor((res + kCodeScale / 2) / kCodeScale);
  const double cons = res - code * kCodeScale;
  if (cons != 0.0 && c.pe == 0) {
    const double lost = std::fabs(std::round(cons / kCntScale));
    c.failed += std::max<std::uint64_t>(1, static_cast<std::uint64_t>(lost));
  }
  ++c.round;
  const Mode next = static_cast<Mode>(std::clamp<int>(
      static_cast<int>(code), kWarmup, kStop));
  if (next != c.mode) SwitchMode(c, next, CmiMyRank() == 0);
  return next;
}

void SwitchMode(PeCtx& c, Mode next, bool process_wide) {
  Snapshot now;
  now.valid = true;
  now.wall_s = NowS();
  now.stats = CmiGetStats();
  if (process_wide) {
    now.cpu_s = ProcessCpuS();
    now.mem = CmiGetMemoryStats();
  }
  if (c.since.valid) {
    ModeTotals& t = c.totals[c.mode];
    t.wall_s += now.wall_s - c.since.wall_s;
    t.cpu_s += now.cpu_s - c.since.cpu_s;
    AddStats(t.stats, c.since.stats, now.stats);
    AddMem(t.mem, c.since.mem, now.mem);
  }
  c.since = now;
  c.mode = next;
}

void AddStats(CmiStats& acc, const CmiStats& a, const CmiStats& b) {
#define PB_ADD(f) acc.f += b.f - a.f
  PB_ADD(msgs_sent);
  PB_ADD(msgs_delivered);
  PB_ADD(msgs_enqueued);
  PB_ADD(msgs_scheduled);
  PB_ADD(idle_blocks);
  PB_ADD(agg_frames_sent);
  PB_ADD(agg_msgs_batched);
  PB_ADD(bcast_forwards);
  PB_ADD(wire_frames_sent);
  PB_ADD(wire_bytes_sent);
  PB_ADD(wire_bytes_received);
  PB_ADD(wire_syscalls);
  PB_ADD(wire_reconnects);
  PB_ADD(wire_dropped);
#undef PB_ADD
}

void AddMem(CmiMemoryStats& acc, const CmiMemoryStats& a,
            const CmiMemoryStats& b) {
  acc.pool_enabled = b.pool_enabled;
  acc.pool_hits += b.pool_hits - a.pool_hits;
  acc.pool_misses += b.pool_misses - a.pool_misses;
  acc.direct_allocs += b.direct_allocs - a.direct_allocs;
  acc.local_frees += b.local_frees - a.local_frees;
  acc.remote_frees += b.remote_frees - a.remote_frees;
}

int Instances(const Options& o, double machine_s) {
  const int n =
      std::max(1, static_cast<int>(std::lround(o.seconds / machine_s)));
  return n | 1;  // odd, so the median is one machine's value
}

void FoldPe(Ledger& led, const PeCtx& c) {
  led.attempted += c.sent;
  led.failed += c.failed;
  led.spans.Merge(c.tr);
  AddStats(led.stats_traced, CmiStats{}, c.totals[kTraced].stats);
}

void FoldLatency(Ledger& led, std::vector<double> v, std::uint64_t seen) {
  led.lat_seen += seen;
  if (v.empty()) return;
  led.lat_min_kept = led.lat_p50.empty()
                         ? v.size()
                         : std::min<std::uint64_t>(led.lat_min_kept, v.size());
  led.lat_p50.push_back(Quantile(v, 0.50));
  led.lat_p99.push_back(Quantile(v, 0.99));
}

void FoldProcess(Ledger& led, const PeCtx& rank0) {
  led.cpu_s_plain += rank0.totals[kPlain].cpu_s;
  AddMem(led.mem_traced, CmiMemoryStats{}, rank0.totals[kTraced].mem);
  led.wall_traced_s += rank0.totals[kTraced].wall_s;
}

void CountRoundMessages(Ledger& led, double extra_per_round) {
  led.msgs_plain =
      led.msgs_by_mode[kPlain] + extra_per_round * led.rounds_by_mode[kPlain];
  led.msgs_traced = led.msgs_by_mode[kTraced] +
                    extra_per_round * led.rounds_by_mode[kTraced];
}

// ---- host / config descriptor -------------------------------------------

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

namespace {

std::string AffinityMask() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  int first = -1;
  for (int i = 0; i <= CPU_SETSIZE; ++i) {
    const bool on = i < CPU_SETSIZE && CPU_ISSET(i, &set);
    if (on && first < 0) first = i;
    if (!on && first >= 0) {
      if (!out.empty()) out += ",";
      out += std::to_string(first);
      if (i - 1 > first) {
        out += '-';
        out += std::to_string(i - 1);
      }
      first = -1;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

const char* Sanitizers() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

}  // namespace

std::string DescribeHost() {
  const CmiMemoryStats mem = CmiGetMemoryStats();
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(UsableCpus());
  s += ", \"online_cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"affinity\": " + JsonStr(AffinityMask());
  s += ", \"cpu_model\": " + JsonStr(CpuModel());
  s += ", \"build_type\": " + JsonStr(PERFBENCH_BUILD_TYPE);
  s += ", \"sanitizers\": " + JsonStr(Sanitizers());
  s += std::string(", \"pool_enabled\": ") +
       (mem.pool_enabled ? "true" : "false");
  return s + "}";
}

std::string DescribeConfig(const MachineConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"npes\": %d, \"nnodes\": %d, \"transport\": \"%s\", "
      "\"aggregate_sends\": %d, \"agg_max_msg\": %u, \"agg_frame_bytes\": %u, "
      "\"agg_frame_msgs\": %u, \"agg_solo_bypass\": %s, "
      "\"ring_capacity\": %d, \"idle_spin_us\": %g, "
      "\"bcast_share_min\": %lld, \"spantree_branching\": %d}",
      cfg.npes, cfg.nnodes,
      cfg.transport == CmiTransport::kInproc   ? "inproc"
      : cfg.transport == CmiTransport::kSocket ? "socket"
                                               : "smpnode",
      cfg.aggregate_sends, cfg.agg_max_msg, cfg.agg_frame_bytes,
      cfg.agg_frame_msgs, cfg.agg_solo_bypass ? "true" : "false",
      cfg.ring_capacity, cfg.idle_spin_us,
      static_cast<long long>(cfg.bcast_share_min), cfg.spantree_branching);
  return buf;
}

std::string MakeRendezvousDir() {
  static int counter = 0;
  mkdir(".bench_build", 0755);
  const std::string dir = ".bench_build/rdv-" + std::to_string(getpid()) +
                          "-" + std::to_string(counter++);
  mkdir(dir.c_str(), 0700);
  return dir;
}

void RemoveRendezvousDir(const std::string& dir, int nnodes) {
  for (int n = 0; n < nnodes; ++n) {
    unlink((dir + "/node" + std::to_string(n) + ".sock").c_str());
  }
  rmdir(dir.c_str());
}

void TimeInprocSetup(const MachineConfig& cfg, int reps,
                     std::vector<double>& out) {
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = NowNs();
    RunConverse(cfg, [](int, int) {});
    out.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
}

}  // namespace perfbench

// converse_perfbench: one workload per invocation.
//
//   converse_perfbench --workload fanin|pingpong|exchange|wire --seed N
//                      --seconds S --trace 0|1 [--plant drop|dup|reorder|corrupt]
//
// Prints a host/config descriptor line, then (with --trace 1) a per-layer
// table, and last one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics of the traced rounds, which alternate with untraced
// ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace converse;

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;  // how many observations the value rests on
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "converse_perfbench: %s\nusage: converse_perfbench --workload "
               "fanin|pingpong|exchange|wire --seed N --seconds S --trace 0|1 "
               "[--plant drop|dup|reorder|corrupt]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds >= 1.0 && o.seconds <= 120.0)) {
        Usage("--seconds takes a number in [1, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (a == "--plant") {
      const std::string p = v;
      o.plant = p == "drop"      ? Plant::kDrop
                : p == "dup"     ? Plant::kDup
                : p == "reorder" ? Plant::kReorder
                : p == "corrupt" ? Plant::kCorrupt
                                 : (Usage("unknown --plant"), Plant::kNone);
    } else {
      Usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload != "fanin" && o.workload != "pingpong" &&
      o.workload != "exchange" && o.workload != "wire") {
    Usage("--workload must be fanin, pingpong, exchange or wire");
  }
  // One message in flight: a lost or extra message would stall the loop.
  if (o.workload == "pingpong" && o.plant != Plant::kNone &&
      o.plant != Plant::kCorrupt) {
    Usage("pingpong supports only --plant corrupt");
  }
  return o;
}

// The runtime reads CONVERSE_* variables (aggregation, pooling, node
// identity, ...).  A benchmark run must not change behind its config.
void RefuseConverseEnv() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CONVERSE_", 9) == 0) {
      std::fprintf(stderr,
                   "converse_perfbench: refusing to run with %s set; unset "
                   "every CONVERSE_* variable\n",
                   *e);
      std::exit(2);
    }
  }
}

MachineConfig ConfigOf(const std::string& w) {
  if (w == "fanin") return FaninConfig();
  if (w == "pingpong") return PingpongConfig();
  if (w == "exchange") return ExchangeConfig();
  static const std::string kNoRendezvous;  // outlives the returned config
  return WireConfig(0, kNoRendezvous);
}

std::vector<double> Durations(const Tracer& t, SpanKind k, double scale) {
  std::vector<double> v;
  for (const Span& s : t.Kept(k)) v.push_back(s.dur_ns * scale);
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct RoundMedians {
  double msgs_per_s = 0, bytes_per_s = 0, round_s = 0;
  std::uint64_t n = 0;
};

RoundMedians MediansOf(const Ledger& led, Mode mode) {
  std::vector<double> rate, bw, rs;
  for (const RoundRec& r : led.rounds) {
    if (r.mode != mode || r.data_s <= 0 || r.bytes_s <= 0) continue;
    rate.push_back(r.msgs / r.data_s);
    bw.push_back(r.bytes / r.bytes_s);
    rs.push_back(r.round_s);
  }
  RoundMedians m;
  m.msgs_per_s = Median(rate);
  m.bytes_per_s = Median(bw);
  m.round_s = Median(rs);
  m.n = static_cast<std::uint64_t>(led.rounds_by_mode[mode]);
  return m;
}

std::vector<Metric> EndToEnd(const Ledger& led) {
  const RoundMedians p = MediansOf(led, kPlain);
  const std::uint64_t nl = led.lat_seen;
  return {
      {"msgs_per_s", p.msgs_per_s, "1/s", p.n},
      {"bytes_per_s", p.bytes_per_s, "B/s", p.n},
      {"steps_per_s", Ratio(1.0, p.round_s), "1/s", p.n},
      {"latency_p50_us", Median(led.lat_p50), "us", nl},
      {"latency_p99_us", Median(led.lat_p99), "us", nl},
      {"cpu_ns_per_msg", Ratio(led.cpu_s_plain * 1e9, led.msgs_plain), "ns",
       static_cast<std::uint64_t>(led.msgs_plain)},
      {"rss_peak_mb", led.rss_peak_mb, "MB",
       static_cast<std::uint64_t>(led.rss_machines)},
      {"setup_s", Median(led.setup_s), "s", led.setup_s.size()},
  };
}

std::vector<Metric> PerLayer(const Ledger& led) {
  const Tracer& t = led.spans;
  const RoundMedians plain = MediansOf(led, kPlain);
  const RoundMedians traced = MediansOf(led, kTraced);
  const CmiStats& s = led.stats_traced;
  const CmiMemoryStats& m = led.mem_traced;
  const auto n = [&t](SpanKind k) { return t.Count(k); };
  const std::vector<double> send = Durations(t, kSpanSend, 1.0);
  const std::vector<double> dwell = Durations(t, kSpanDwell, 1e-3);
  const double allocs =
      static_cast<double>(m.pool_hits + m.pool_misses + m.direct_allocs);
  const double frees = static_cast<double>(m.local_frees + m.remote_frees);
  const double msgs = led.msgs_traced;
  const auto u = [](double x) { return static_cast<std::uint64_t>(x); };
  return {
      {"machine.send_ns_p50", Quantile(send, 0.50), "ns", n(kSpanSend)},
      {"machine.send_ns_p99", Quantile(send, 0.99), "ns", n(kSpanSend)},
      {"machine.dwell_us_p50", Quantile(dwell, 0.50), "us", n(kSpanDwell)},
      {"machine.dwell_us_p99", Quantile(dwell, 0.99), "us", n(kSpanDwell)},
      {"machine.credit_wait_frac",
       Ratio(led.wait_s_traced, led.wall_traced_s * led.waiting_pes), "frac",
       traced.n},
      {"machine.recv_busy_frac",
       Ratio(led.busy_s_traced, led.wall_traced_s * led.busy_pes), "frac",
       t.Count(kSpanHandler)},
      {"sched.idle_blocks_per_kmsg",
       Ratio(static_cast<double>(s.idle_blocks), msgs / 1000.0), "1/kmsg",
       u(msgs)},
      {"sched.enqueue_ns", Median(Durations(t, kSpanEnqueue, 1.0)), "ns",
       n(kSpanEnqueue)},
      {"msg.alloc_ns", Median(Durations(t, kSpanAlloc, 1.0)), "ns",
       n(kSpanAlloc)},
      {"msg.free_ns", Median(Durations(t, kSpanFree, 1.0)), "ns",
       n(kSpanFree)},
      {"msg.pool_hit_ratio", Ratio(static_cast<double>(m.pool_hits), allocs),
       "ratio", u(allocs)},
      {"msg.remote_free_ratio",
       Ratio(static_cast<double>(m.remote_frees), frees), "ratio", u(frees)},
      {"stream.msgs_per_frame",
       Ratio(static_cast<double>(s.agg_msgs_batched),
             static_cast<double>(s.agg_frames_sent)),
       "count", s.agg_frames_sent},
      {"stream.flush_ns", Median(Durations(t, kSpanFlush, 1.0)), "ns",
       n(kSpanFlush)},
      {"collectives.allreduce_us", Median(Durations(t, kSpanAllReduce, 1e-3)),
       "us", n(kSpanAllReduce)},
      {"collectives.forwards_per_step",
       Ratio(static_cast<double>(s.bcast_forwards),
             static_cast<double>(traced.n)),
       "count", traced.n},
      {"transport.syscalls_per_msg",
       Ratio(static_cast<double>(s.wire_syscalls), msgs), "count", u(msgs)},
      {"transport.bytes_per_syscall",
       Ratio(static_cast<double>(s.wire_bytes_sent),
             static_cast<double>(s.wire_syscalls)),
       "B", s.wire_syscalls},
      {"transport.records_per_msg",
       Ratio(static_cast<double>(s.wire_frames_sent), msgs), "count", u(msgs)},
      {"transport.floor_frac",
       Ratio(plain.bytes_per_s, led.floor_bytes_per_s), "frac", 3},
      {"transport.reconnects", static_cast<double>(s.wire_reconnects), "count",
       1},
      {"trace.overhead_frac",
       plain.msgs_per_s > 0 ? 1.0 - traced.msgs_per_s / plain.msgs_per_s : 0.0,
       "frac", plain.n + traced.n},
  };
}

// Spans stay in memory during the run and are written once, here.
void WriteSpans(const Ledger& led, const std::string& workload) {
  const std::string path = ".bench_build/perfbench-spans-" + workload + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "span,pe,start_ns,dur_ns,id\n");
  for (int k = 0; k < kNumSpanKinds; ++k) {
    for (const Span& s : led.spans.Kept(static_cast<SpanKind>(k))) {
      std::fprintf(f, "%s,%u,%llu,%u,%llu\n", SpanName(static_cast<SpanKind>(k)),
                   s.pe, static_cast<unsigned long long>(s.start_ns), s.dur_ns,
                   static_cast<unsigned long long>(s.id));
    }
  }
  std::fclose(f);
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = Parse(argc, argv);
  RefuseConverseEnv();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"host\": %s, \"config\": %s}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, DescribeHost().c_str(),
              DescribeConfig(ConfigOf(o.workload)).c_str());

  Ledger led;
  if (o.workload == "fanin") {
    led = RunFanin(o);
  } else if (o.workload == "pingpong") {
    led = RunPingpong(o);
  } else if (o.workload == "exchange") {
    led = RunExchange(o);
  } else {
    led = RunWire(o);
  }

  const std::vector<Metric> e2e = EndToEnd(led);
  std::printf("{\"samples\": {\"machines\": %zu, \"rounds\": %llu, "
              "\"latency_seen\": %llu, \"latency_kept_min\": %llu, "
              "\"setup\": %zu}}\n",
              led.lat_p50.size(), static_cast<unsigned long long>(e2e[0].samples),
              static_cast<unsigned long long>(led.lat_seen),
              static_cast<unsigned long long>(led.lat_min_kept),
              led.setup_s.size());
  // Sizing guard: every machine's p99 rests on at least ten samples
  // beyond it.
  if (!o.trace && led.lat_min_kept < 1000) {
    std::fprintf(stderr,
                 "perfbench: only %llu latency samples in one machine\n",
                 static_cast<unsigned long long>(led.lat_min_kept));
  }
  const std::vector<Metric> metrics = o.trace ? PerLayer(led) : e2e;
  if (o.trace) {
    WriteSpans(led, o.workload);
    std::printf("# %-32s %16s %-8s %10s\n", "per-layer metric", "value",
                "unit", "samples");
    for (const Metric& m : metrics) {
      std::printf("# %-32s %16.6g %-8s %10llu\n", m.name.c_str(), m.value,
                  m.unit, static_cast<unsigned long long>(m.samples));
    }
  }

  bool measured = led.rounds.Seen() > 0;
  for (const Metric& m : e2e) {
    if (!(m.value > 0)) measured = false;  // every e2e metric is nonzero
  }
  const bool correct = led.failed == 0 && led.attempted > 0 && measured;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(led.attempted);
  out += ", \"failed\": " + std::to_string(led.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

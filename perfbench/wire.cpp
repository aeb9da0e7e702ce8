// The wire workload: two OS processes, one PE each, over the Unix-socket
// transport.  For every machine this process forks both nodes: node 0
// (PE 0) sends, node 1 (PE 1) checks and acks; each reports its own
// measurements back over a pipe.
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr std::size_t kSmall = 64;
constexpr int kSmallWindow = 1024;  // 64 B messages per ack
constexpr int kSmallWindows = 32;   // per round
constexpr std::size_t kBigTotal = 65536;  // header + payload on the wire
constexpr int kBigWindow = 16;      // 64 KiB messages per ack
constexpr int kBigWindows = 8;      // per round
constexpr int kStreams = 2;         // stream 0: 64 B, stream 1: 64 KiB

/// What one node process measured, shipped to the driving process when
/// its machine has ended.  Followed on the pipe by `nspans` spans,
/// `nrounds` rounds and `nlat` latency samples.
struct SideReport {
  std::uint64_t attempted = 0, failed = 0;
  double cpu_plain_s = 0, busy_s_traced = 0, wait_s_traced = 0;
  double wall_traced_s = 0, rss_mb = 0;
  CmiStats stats_traced{};
  CmiMemoryStats mem_traced{};
  std::array<double, 4> msgs_by_mode{}, rounds_by_mode{};
  std::uint64_t lat_seen = 0;
  std::array<std::uint64_t, kNumSpanKinds> spans_unkept{};
  std::uint64_t nspans = 0, nrounds = 0, nlat = 0;
};

bool WriteAll(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = write(fd, b, n);
    if (w <= 0) return false;
    b += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* p, std::size_t n) {
  auto* b = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t r = read(fd, b, n);
    if (r <= 0) return false;
    b += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

// One process's side of the measured machine.
void WireSide(const Options& o, int node, const std::string& rdv, PeCtx& c,
              Ledger* led) {
  const MachineConfig cfg = WireConfig(node, rdv);
  Schedule sch;
  RunConverse(cfg, [&](int pe, int np) {
    c.Init(pe, np, o, kStreams);
    if (pe != 0) c.plant = Plant::kNone;
    c.plant_at = 1000;  // mid-window in the first 64 B window
    RegisterMarker(c);
    const int ack = CmiRegisterHandler([](void*) {});
    auto acker = [&c, ack](const Stamp& st, int window) {
      if ((st.seq + 1) % static_cast<std::uint32_t>(window) == 0) {
        void* a = CmiMakeMessage(ack, nullptr, 0);
        CmiSyncSendAndFree(st.src, static_cast<unsigned>(CmiMsgTotalSize(a)),
                           a);
        CmiFlush();  // the ack gates the sender: never leave it in a frame
      }
      if (st.flags & kLastOfRound) WakeIfWaiting(c);
    };
    const int small_h = CmiRegisterHandler([&c, acker](void* m) {
      HandlerTimer ht(c);
      acker(ReceiveData(c, m, kStreams, false), kSmallWindow);
    });
    const int big_h = CmiRegisterHandler([&c, acker](void* m) {
      HandlerTimer ht(c);
      acker(ReceiveData(c, m, kStreams, false), kBigWindow);
    });

    Mode m = kWarmup;
    if (pe != 0) {
      while (m != kStop) {
        WaitUntil(c, [&c] { return c.lasts[c.round & 1] >= 1; });
        m = EndRound(c, kWarmup);
      }
    } else {
      // One window: send, flush, wait for the ack.  Returns seconds.
      auto window = [&c, ack](int handler, int stream, std::size_t bytes,
                              int n, bool last_window) {
        const std::uint64_t t0 = NowNs();
        for (int i = 0; i < n; ++i) {
          SendData(c, handler, 1, stream, kStreams, bytes,
                   last_window && i == n - 1);
        }
        const std::uint64_t tf = NowNs();
        CmiFlush();
        const std::uint64_t t1 = NowNs();
        if (c.Tracing()) c.tr.Add(kSpanFlush, c.pe, tf, t1);
        CmiGetSpecificMsg(ack);
        const std::uint64_t t2 = NowNs();
        if (c.Tracing()) c.wait_s_traced += static_cast<double>(t2 - t1) * 1e-9;
        return static_cast<double>(t2 - t0) * 1e-9;
      };
      const std::size_t big_payload =
          kBigTotal - static_cast<std::size_t>(CmiMsgHeaderSizeBytes());
      sch.Start(o);
      while (m != kStop) {
        const Mode cur = c.mode;
        const std::uint64_t t0 = NowNs();
        double small_s = 0;
        for (int w = 0; w < kSmallWindows; ++w) {
          const double s = window(small_h, 0, kSmall, kSmallWindow, false);
          if (cur == kPlain) c.lat_us.Add(s * 1e6);
          small_s += s;
        }
        double big_s = 0;
        for (int w = 0; w < kBigWindows; ++w) {
          big_s += window(big_h, 1, big_payload, kBigWindow,
                          w == kBigWindows - 1);
        }
        m = EndRound(c, sch.Next(NowS()));
        RoundRec r;
        r.mode = cur;
        r.round_s = static_cast<double>(NowNs() - t0) * 1e-9;
        r.data_s = small_s;
        r.msgs = static_cast<double>(kSmallWindows) * kSmallWindow;
        r.bytes = static_cast<double>(kBigWindows) * kBigWindow *
                  static_cast<double>(kBigTotal);
        r.bytes_s = big_s;
        led->AddRound(r);
      }
    }
    // Transport conservation: nothing dropped, no link re-established.
    const CmiStats s = CmiGetStats();
    c.failed += s.wire_dropped + s.wire_reconnects;
  });
}

// Raw socketpair floor: the same 64 KiB writes between two processes with
// nothing of ours on top.  Median of a few transfers, bytes per second.
double SocketpairFloor() {
  constexpr long kTotal = 64L << 20;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return 0.0;
    for (int fd : sv) {
      const int bytes = 1 << 20;  // the transport's socket buffer size
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    }
    const pid_t child = fork();
    if (child < 0) {
      close(sv[0]);
      close(sv[1]);
      return 0.0;
    }
    if (child == 0) {
      close(sv[0]);
      std::vector<char> buf(kBigTotal);
      long got = 0;
      while (got < kTotal) {
        const ssize_t n = read(sv[1], buf.data(), buf.size());
        if (n <= 0) _exit(1);
        got += n;
      }
      const char ok = 1;
      _exit(write(sv[1], &ok, 1) == 1 ? 0 : 1);
    }
    close(sv[1]);
    std::vector<char> buf(kBigTotal, 'p');
    const std::uint64_t t0 = NowNs();
    long sent = 0;
    while (sent < kTotal) {
      const ssize_t n = write(sv[0], buf.data(), buf.size());
      if (n <= 0) break;
      sent += n;
    }
    char ok = 0;
    const bool acked = read(sv[0], &ok, 1) == 1 && ok == 1;
    const double dt = static_cast<double>(NowNs() - t0) * 1e-9;
    close(sv[0]);
    int status = 0;
    waitpid(child, &status, 0);
    if (sent == kTotal && acked && dt > 0) {
      rates.push_back(static_cast<double>(kTotal) / dt);
    }
  }
  return Median(rates);
}

// Node 1 dials node 0 and, if node 0 is not listening yet, retries after a
// 1 ms backoff.  Which of the two freshly forked processes gets going first
// is a coin toss, so node 1 waits for node 0's socket to appear before it
// starts: set-up time then measures start, handshake and teardown, not
// the toss.
void WaitForListener(const std::string& rdv) {
  const std::string sock = rdv + "/node0.sock";
  const std::uint64_t give_up = NowNs() + 5000000000ull;
  while (access(sock.c_str(), F_OK) != 0 && NowNs() < give_up) usleep(20);
}

// Time `reps` starts, handshakes and tear-downs of the two-process machine.
// Returns false if a node failed.
bool TimeWireSetup(int reps, std::vector<double>& t) {
  for (int i = 0; i < reps; ++i) {
    const std::string rdv = MakeRendezvousDir();
    const std::uint64_t t0 = NowNs();
    const pid_t child = fork();
    if (child < 0) return false;
    if (child == 0) {
      WaitForListener(rdv);
      RunConverse(WireConfig(1, rdv), [](int, int) {});
      _exit(0);
    }
    RunConverse(WireConfig(0, rdv), [](int, int) {});
    int status = 0;
    waitpid(child, &status, 0);
    t.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    RemoveRendezvousDir(rdv, 2);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  }
  return true;
}

template <class T>
bool WriteVec(int fd, const std::vector<T>& v) {
  return WriteAll(fd, v.data(), v.size() * sizeof(T));
}

template <class T>
bool ReadVec(int fd, std::vector<T>& v, std::uint64_t n) {
  v.resize(n);
  return ReadAll(fd, v.data(), v.size() * sizeof(T));
}

// Body of a node process: run this node of the machine, then report.
[[noreturn]] void NodeProcess(const Options& o, int node,
                              const std::string& rdv, int fd) {
  // A forked process's peak RSS starts at the pages it shares with the
  // driving process; only what the node adds beyond them is its own.
  const double inherited_mb = PeakRssMb();
  if (node == 1) WaitForListener(rdv);
  PeCtx c;
  Ledger side;
  WireSide(o, node, rdv, c, &side);
  FoldPe(side, c);
  FoldProcess(side, c);
  SideReport rep;
  rep.attempted = side.attempted;
  rep.failed = side.failed;
  rep.cpu_plain_s = side.cpu_s_plain;
  rep.busy_s_traced = c.tr.BusyS(kSpanHandler) * Tracer::kSampleEvery;
  rep.wait_s_traced = c.wait_s_traced;
  rep.wall_traced_s = side.wall_traced_s;
  rep.rss_mb = PeakRssMb() - inherited_mb;
  rep.stats_traced = side.stats_traced;
  rep.mem_traced = side.mem_traced;
  rep.msgs_by_mode = side.msgs_by_mode;
  rep.rounds_by_mode = side.rounds_by_mode;
  rep.lat_seen = c.lat_us.Seen();
  std::vector<Span> spans;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const auto& r = c.tr.Kept(static_cast<SpanKind>(k));
    spans.insert(spans.end(), r.begin(), r.end());
    rep.spans_unkept[k] = c.tr.Count(static_cast<SpanKind>(k)) -
                          static_cast<std::uint64_t>(r.end() - r.begin());
  }
  const std::vector<RoundRec> rounds(side.rounds.begin(), side.rounds.end());
  const std::vector<double> lat(c.lat_us.begin(), c.lat_us.end());
  rep.nspans = spans.size();
  rep.nrounds = rounds.size();
  rep.nlat = lat.size();
  const bool ok = WriteAll(fd, &rep, sizeof(rep)) && WriteVec(fd, spans) &&
                  WriteVec(fd, rounds) && WriteVec(fd, lat);
  _exit(ok ? 0 : 1);
}

// One measured machine: fork both node processes, so each machine's
// processes are fresh, then fold both reports into `led` and add up the
// RSS both nodes added in `rss_mb`.  Returns false if either node failed.
bool RunWireInstance(const Options& o, bool plant, Ledger& led,
                     double& rss_mb) {
  const std::string rdv = MakeRendezvousDir();
  int fds[2][2];
  pid_t pid[2] = {-1, -1};
  for (int node = 0; node < 2; ++node) {
    if (pipe(fds[node]) != 0 || (pid[node] = fork()) < 0) {
      std::perror("perfbench: starting a wire node");
      if (node == 1) {  // node 0 would wait for its peer until it timed out
        kill(pid[0], SIGKILL);
        waitpid(pid[0], nullptr, 0);
      }
      return false;
    }
    if (pid[node] == 0) {
      close(fds[node][0]);
      Options mine = o;
      if (!plant || node != 0) mine.plant = Plant::kNone;
      NodeProcess(mine, node, rdv, fds[node][1]);
    }
    close(fds[node][1]);
  }

  bool ok = true;
  rss_mb = 0;
  for (int node = 0; node < 2; ++node) {
    SideReport rep;
    std::vector<Span> spans;
    std::vector<RoundRec> rounds;
    std::vector<double> lat;
    const bool got = ReadAll(fds[node][0], &rep, sizeof(rep)) &&
                     ReadVec(fds[node][0], spans, rep.nspans) &&
                     ReadVec(fds[node][0], rounds, rep.nrounds) &&
                     ReadVec(fds[node][0], lat, rep.nlat);
    close(fds[node][0]);
    int status = 0;
    waitpid(pid[node], &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
      continue;
    }
    // Every metric counts both sides of the wire.
    led.attempted += rep.attempted;
    led.failed += rep.failed;
    led.cpu_s_plain += rep.cpu_plain_s;
    led.busy_s_traced += rep.busy_s_traced;  // node 1 receives
    led.wait_s_traced += rep.wait_s_traced;  // node 0 waits for acks
    if (node == 0) led.wall_traced_s += rep.wall_traced_s;
    AddStats(led.stats_traced, CmiStats{}, rep.stats_traced);
    AddMem(led.mem_traced, CmiMemoryStats{}, rep.mem_traced);
    for (const Span& s : spans) led.spans.AddSpan(s);
    for (int k = 0; k < kNumSpanKinds; ++k) {
      led.spans.AddUnkept(static_cast<SpanKind>(k), rep.spans_unkept[k]);
    }
    for (const RoundRec& r : rounds) led.rounds.Add(r);
    for (int m = 0; m < 4; ++m) {
      led.msgs_by_mode[m] += rep.msgs_by_mode[m];
      led.rounds_by_mode[m] += rep.rounds_by_mode[m];
    }
    if (node == 0) FoldLatency(led, lat, rep.lat_seen);
    rss_mb += rep.rss_mb;
  }
  RemoveRendezvousDir(rdv, 2);
  return ok;
}

}  // namespace

MachineConfig WireConfig(int mynode, const std::string& rdv) {
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.nnodes = 2;
  cfg.transport = CmiTransport::kSocket;
  cfg.mynode = mynode;
  cfg.rendezvous_dir = rdv.c_str();
  cfg.wire_timeout_ms = 20000;
  cfg.ring_capacity = 1024;
  cfg.idle_spin_us = 0.0;
  // Frames are the wire unit: a window of 64 B messages crosses the
  // socket in a handful of sendmsg calls.
  cfg.aggregate_sends = 1;
  cfg.agg_max_msg = 512;
  cfg.agg_frame_bytes = 65536;
  cfg.agg_frame_msgs = 8192;
  cfg.agg_solo_bypass = true;
  cfg.bcast_share_min = 4096;
  cfg.spantree_branching = 4;
  return cfg;
}

Ledger RunWire(const Options& o) {
  Ledger led;
  // Longer machines than in-process: each must gather 1000+ window
  // latencies for its own p99.
  const int instances = Instances(o, 1.0);
  Options slice = o;
  slice.seconds = o.seconds / instances;
  std::vector<double> rss_mb;
  for (int inst = 0; inst < instances; ++inst) {
    double mb = 0;
    // Faults are planted in the first machine only.
    if (!TimeWireSetup(kSetupRepsWire, led.setup_s) ||
        !RunWireInstance(slice, inst == 0, led, mb)) {
      std::fprintf(stderr, "perfbench: a wire node process failed\n");
      led.failed += 1;
      break;
    }
    rss_mb.push_back(mb);
  }
  led.rss_peak_mb = Median(rss_mb);
  led.rss_machines = static_cast<int>(rss_mb.size());
  led.waiting_pes = 1;
  led.busy_pes = 1;
  CountRoundMessages(led, static_cast<double>(kBigWindows) * kBigWindow);
  if (o.trace) led.floor_bytes_per_s = SocketpairFloor();
  return led;
}

}  // namespace perfbench

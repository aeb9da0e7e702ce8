// Socket-transport benchmark: message rate and bandwidth between two REAL
// OS processes over the batched socket backend (DESIGN.md "Transport
// interface"), plus a loopback-memcpy baseline to anchor the bandwidth
// number to what one plain copy of the same bytes costs on this host.
//
// The benchmark forks itself: the parent hosts node 0 (PE 0, the driver
// and the side that measures/report), the child hosts node 1 (PE 1, the
// echo side).  Rendezvous is a private directory of Unix sockets.
//
//   phase 1 — 64 B message rate.  PE 0 streams bursts of small messages
//     with aggregation ON and frames sized to the wire (64 KiB, so one
//     sendmsg carries hundreds of messages); PE 1 acks once per burst.
//     This is the transport acceptance metric: the wire unit is the
//     FRAME, so small-message rate survives the syscall boundary.
//   phase 2 — 64 KiB bandwidth.  Large messages bypass frames and travel
//     one record each (sendmsg gathers the body straight from message
//     memory); PE 1 acks every window.  Reported in Gbit/s and as a
//     fraction of the loopback floor.
//
// The "loopback memcpy-equivalent" baseline is measured, not assumed: the
// same two processes move the same volume through a raw socketpair in
// 64 KiB writes.  That is exactly the memcpy work the kernel performs for
// a loopback wire (user->kernel on write, kernel->user on read) under the
// same core budget, so transport/loopback isolates what OUR layer adds
// (framing, dispatch, message allocation, acks) rather than comparing a
// scheduled two-process pipeline against one cache-hot memcpy loop.  The
// single-copy memcpy number is still printed as a reference point.
//
// Both processes run on whatever cores the host has (the dev host has
// ONE, so sender and receiver time-slice; the numbers are a conservative
// floor, not a NIC ceiling).
//
// Flags: --json[=path], --quick, --relaxed (report shape checks without
// gating the exit code — for sanitizer builds and noisy shared runners),
// --ppn N (N PEs per node, default 1: PE i of node 0 drives PE i of node
// 1, so N senders share one node's transport; rates are the sum over the
// pairs, each phase timed from its first start to its last finish).
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "converse/converse.h"

using namespace converse;
using namespace converse::bench;

namespace {

struct Shape {
  long small_msgs = 600000;        // phase 1 total messages
  int small_burst = 4096;          // messages per ack
  std::size_t small_bytes = 64;    // phase 1 payload
  long big_msgs = 3072;            // phase 2 total messages (192 MiB)
  int big_window = 64;             // large messages per ack
  std::size_t big_bytes = 65536;   // phase 2 payload
  int ppn = 1;                     // PEs per node (= sending pairs)
};

struct WireNumbers {
  double msgs_per_sec = 0.0;
  double gbps = 0.0;
};

// One machine, both phases; runs in BOTH processes (mynode selects the
// role: node 0's PEs drive and measure, node 1's PEs echo acks).  Node 0
// PE i drives node 1 PE ppn + i.  Every PE meets at a barrier before each
// phase and after the last one, so a phase's rate is the sum over all
// pairs.
WireNumbers RunWire(const Shape& sh, int mynode, const char* rdv) {
  WireNumbers out;
  MachineConfig cfg;
  cfg.npes = 2 * sh.ppn;
  cfg.nnodes = 2;
  // kSocket is one process per PE; SMP nodes put ppn PEs in each process.
  cfg.transport =
      sh.ppn == 1 ? CmiTransport::kSocket : CmiTransport::kSmpNode;
  cfg.mynode = mynode;
  cfg.rendezvous_dir = rdv;
  cfg.wire_timeout_ms = 30000;
  // Frames ARE the wire unit: size them so a burst of 64 B messages
  // crosses the socket in a handful of sendmsg calls.
  cfg.aggregate_sends = 1;
  cfg.agg_frame_bytes = 65536;
  cfg.agg_frame_msgs = 8192;
  // Phase bounds per driver: [phase][rank] = {start, end}.
  std::vector<std::pair<double, double>> spans[2];
  spans[0].resize(static_cast<std::size_t>(sh.ppn));
  spans[1].resize(static_cast<std::size_t>(sh.ppn));
  RunConverse(cfg, [&](int pe, int) {
    int acks = 0;
    int ack = CmiRegisterHandler([&acks](void*) { ++acks; });

    // Echo side: one ack per phase-1 burst, one per phase-2 window.
    const int driver = pe - sh.ppn;
    long got_small = 0, got_big = 0;
    int sink_small = CmiRegisterHandler([&](void*) {
      if (++got_small % sh.small_burst == 0) {
        void* a = CmiMakeMessage(ack, nullptr, 0);
        CmiSyncSendAndFree(driver, CmiMsgTotalSize(a), a);
        CmiFlush();  // the ack gates the sender: never let it sit batched
      }
    });
    int sink_big = CmiRegisterHandler([&](void*) {
      if (++got_big % sh.big_window == 0) {
        void* a = CmiMakeMessage(ack, nullptr, 0);
        CmiSyncSendAndFree(driver, CmiMsgTotalSize(a), a);
        CmiFlush();
      }
    });

    if (pe >= sh.ppn) {
      for (int phase = 0; phase < 3; ++phase) CmiBarrierBlocking();
      CsdScheduler(-1);  // echo until the driver broadcasts exit
      return;
    }
    (void)sink_small;
    (void)sink_big;
    const int echo = pe + sh.ppn;
    const auto rank = static_cast<std::size_t>(pe);

    // ---- phase 1: 64 B message rate ----
    CmiBarrierBlocking();
    {
      std::vector<char> payload(sh.small_bytes, 'r');
      void* m = CmiMakeMessage(sink_small, payload.data(), payload.size());
      const unsigned msz = static_cast<unsigned>(CmiMsgTotalSize(m));
      const long bursts = sh.small_msgs / sh.small_burst;
      spans[0][rank].first = CmiTimer();
      for (long b = 0; b < bursts; ++b) {
        for (int i = 0; i < sh.small_burst; ++i) {
          CmiSyncSend(echo, msz, m);
        }
        CmiFlush();
        const int want = acks + 1;  // block for this burst's ack
        while (acks < want) CsdScheduler(1);
      }
      spans[0][rank].second = CmiTimer();
      CmiFree(m);
    }

    // ---- phase 2: 64 KiB bandwidth ----
    CmiBarrierBlocking();
    {
      // Build-in-place sends: allocate, stamp the handler, hand the
      // message to the wire (uninitialized payload — the socketpair
      // baseline does not regenerate its buffer content either).
      // 64 KiB ON THE WIRE: payload sized so header + payload lands
      // exactly on the pool's top size class.
      const std::size_t body =
          sh.big_bytes - static_cast<std::size_t>(CmiMsgHeaderSizeBytes());
      const long windows = sh.big_msgs / sh.big_window;
      spans[1][rank].first = CmiTimer();
      for (long w = 0; w < windows; ++w) {
        for (int i = 0; i < sh.big_window; ++i) {
          void* m = CmiMakeMessage(sink_big, nullptr, body);
          CmiSyncSendAndFree(echo, CmiMsgTotalSize(m), m);
        }
        CmiFlush();
        const int want = acks + 1;
        while (acks < want) CsdScheduler(1);
      }
      spans[1][rank].second = CmiTimer();
    }

    CmiBarrierBlocking();
    if (pe == 0) {
      ConverseBroadcastExit();
    } else {
      CsdScheduler(-1);
    }
  });
  if (mynode != 0) return out;
  // One phase's wall time: first driver start to last driver end.
  auto wall = [](const std::vector<std::pair<double, double>>& v) {
    double t0 = v[0].first, t1 = v[0].second;
    for (const auto& [a, b] : v) {
      t0 = std::min(t0, a);
      t1 = std::max(t1, b);
    }
    return t1 - t0;
  };
  const double dt_small = wall(spans[0]), dt_big = wall(spans[1]);
  const double sent = static_cast<double>(
      (sh.small_msgs / sh.small_burst) * sh.small_burst * sh.ppn);
  out.msgs_per_sec = dt_small > 0 ? sent / dt_small : 0.0;
  const double bytes =
      static_cast<double>((sh.big_msgs / sh.big_window) * sh.big_window *
                          sh.ppn) *
      static_cast<double>(sh.big_bytes);
  out.gbps = dt_big > 0 ? bytes * 8.0 / dt_big / 1e9 : 0.0;
  return out;
}

// The loopback floor: the phase-2 volume through a raw socketpair between
// two forked processes, written in 64 KiB chunks.  This is the kernel's
// own memcpy-equivalent of a loopback wire — the two unavoidable copies
// plus syscalls and scheduling — with none of our framing on top.
double LoopbackGbps(const Shape& sh) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return 0.0;
  for (int i = 0; i < 2; ++i) {
    const int bytes = 1 << 20;  // match the transport's socket buffers
    setsockopt(sv[i], SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    setsockopt(sv[i], SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }
  const long total = sh.big_msgs * static_cast<long>(sh.big_bytes);
  const pid_t child = fork();
  if (child < 0) {
    close(sv[0]);
    close(sv[1]);
    return 0.0;
  }
  if (child == 0) {  // sink: read everything, then ack one byte
    close(sv[0]);
    std::vector<char> buf(sh.big_bytes);
    long got = 0;
    while (got < total) {
      const ssize_t n = read(sv[1], buf.data(), buf.size());
      if (n <= 0) _exit(1);
      got += n;
    }
    const char ok = 1;
    (void)!write(sv[1], &ok, 1);
    _exit(0);
  }
  close(sv[1]);
  std::vector<char> buf(sh.big_bytes, 'p');
  const auto t0 = std::chrono::steady_clock::now();
  long sent = 0;
  while (sent < total) {
    const ssize_t n = write(sv[0], buf.data(), buf.size());
    if (n <= 0) break;
    sent += n;
  }
  char ok = 0;
  (void)!read(sv[0], &ok, 1);  // ack marks the last byte ARRIVED
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  close(sv[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (sent < total || ok != 1) return 0.0;
  return dt > 0 ? static_cast<double>(total) * 8.0 / dt / 1e9 : 0.0;
}

// Single-copy cache-hot memcpy over one payload: a reference point only
// (no cross-process transfer can reach it — the kernel alone does two
// such copies; docs/PERFORMANCE.md "Wire format and batching").
double MemcpyGbps(const Shape& sh) {
  std::vector<char> src(sh.big_bytes, 'm'), dst(sh.big_bytes);
  const long reps = sh.big_msgs * 8 < 2000 ? 2000 : sh.big_msgs * 8;
  // Warm up, then time.
  std::memcpy(dst.data(), src.data(), sh.big_bytes);
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < reps; ++i) {
    std::memcpy(dst.data(), src.data(), sh.big_bytes);
    src[static_cast<std::size_t>(i) % sh.big_bytes] =
        static_cast<char>(i);  // defeat copy elision
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return dt > 0
             ? static_cast<double>(reps) *
                   static_cast<double>(sh.big_bytes) * 8.0 / dt / 1e9
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  JsonInit("bench_transport", argc, argv);
  bool relaxed = false;
  Shape sh;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--relaxed") == 0) relaxed = true;
    if (std::strcmp(argv[i], "--ppn") == 0 && i + 1 < argc) {
      sh.ppn = std::atoi(argv[++i]);
      if (sh.ppn < 1 || sh.ppn > 8) {
        std::fprintf(stderr, "bench_transport: --ppn takes 1..8\n");
        return 1;
      }
    }
  }
  if (QuickRun()) {
    sh.small_msgs = 60000;
    sh.big_msgs = 768;
  }

  char rdv[] = "/tmp/bench_transport.XXXXXX";
  if (mkdtemp(rdv) == nullptr) {
    std::perror("bench_transport: mkdtemp");
    return 1;
  }

  const pid_t child = fork();
  if (child < 0) {
    std::perror("bench_transport: fork");
    return 1;
  }
  if (child == 0) {
    RunWire(sh, 1, rdv);  // echo side: no output
    _exit(0);
  }

  const WireNumbers w = RunWire(sh, 0, rdv);
  int status = 0;
  waitpid(child, &status, 0);
  for (int node = 0; node < 2; ++node) {
    const std::string sock =
        std::string(rdv) + "/node" + std::to_string(node) + ".sock";
    unlink(sock.c_str());
  }
  rmdir(rdv);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_transport: echo process failed\n");
    return 1;
  }

  const double loopback_gbps = LoopbackGbps(sh);
  const double memcpy_gbps = MemcpyGbps(sh);
  const double frac = loopback_gbps > 0 ? w.gbps / loopback_gbps : 0.0;

  std::printf("bench_transport (2 processes x %d PE%s, unix sockets, "
              "frames on)\n",
              sh.ppn, sh.ppn == 1 ? "" : "s");
  std::printf("  64 B message rate : %10.0f msgs/s\n", w.msgs_per_sec);
  std::printf("  64 KiB bandwidth  : %10.2f Gbit/s\n", w.gbps);
  std::printf("  loopback floor    : %10.2f Gbit/s (raw socketpair)\n",
              loopback_gbps);
  std::printf("  memcpy reference  : %10.2f Gbit/s (single copy)\n",
              memcpy_gbps);
  std::printf("  wire vs loopback  : %10.2f\n", frac);

  const std::string procs =
      sh.ppn == 1 ? "2proc" : "2proc_ppn" + std::to_string(sh.ppn);
  JsonAdd(("msgs_per_sec_64B/" + procs).c_str(), w.msgs_per_sec,
          "msgs_per_sec");
  JsonAdd(("bandwidth_gbps_64KiB/" + procs).c_str(), w.gbps, "gbps");
  JsonAdd("loopback_gbps_64KiB/2proc", loopback_gbps, "gbps");
  JsonAdd("memcpy_gbps_64KiB/1copy", memcpy_gbps, "gbps");
  JsonAdd("bandwidth_vs_loopback", frac, "ratio");
  const int rc = JsonFlush();
  if (rc != 0) return rc;

  // Shape checks (the transport acceptance criteria); --relaxed reports
  // without gating, for sanitizer builds and noisy runners.
  bool ok = true;
  if (w.msgs_per_sec < 5e6) {
    std::fprintf(stderr,
                 "bench_transport: 64 B rate %.0f < 5M msgs/s target\n",
                 w.msgs_per_sec);
    ok = false;
  }
  // The raw floor spends NOTHING in user space, so on a single-core host
  // every cycle of framing/dispatch/scheduling is stolen from the copy
  // loop and the ratio lands near 0.3; with >=2 cores the comm threads
  // overlap the copies and the ratio climbs toward the 50% design goal.
  // Gate at 0.12 as a regression guard that holds on the worst host.
  if (frac < 0.12) {
    std::fprintf(stderr,
                 "bench_transport: bandwidth %.2f Gbit/s is %.0f%% of "
                 "the raw loopback floor (%.2f Gbit/s), guard 12%%\n",
                 w.gbps, frac * 100.0, loopback_gbps);
    ok = false;
  }
  return ok || relaxed ? 0 : 1;
}

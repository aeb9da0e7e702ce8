// §5.1 claim bench: "An acceptable overhead in this context is a few tens
// of instructions over and above the cost of such operations in a native
// implementation" (§3, completeness-of-coverage), and "languages and
// applications pay the overhead only for features that they use."
//
// Prints a per-operation breakdown of the Converse message path in
// nanoseconds, so the need-based-cost claim is checkable operation by
// operation: a language that skips the scheduler queue never pays the
// queue rows.
//
// The cross-core rows put the sender and the receiver on different PE
// threads (so, given the cores, on different cores): a 2-PE one-way stream
// into a remote handler and a 3 -> 1 fan-in, aggregation off, so every
// message crosses a delivery lane on its own.  Their cost is the
// receiver's steady-state time per delivered message.
//
// Flags: --json[=path] machine-readable results, --quick smoke-size reps.
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "converse/converse.h"
#include "converse/util/timer.h"

using namespace converse;

namespace {

int g_reps = 200000;

double TimeNs(const char* label, const std::function<void()>& op) {
  // One warmup pass, then the measured pass.
  op();
  const auto t0 = util::NowNs();
  op();
  const auto t1 = util::NowNs();
  const double ns = static_cast<double>(t1 - t0) / g_reps;
  std::printf("%-44s %10.1f ns/msg\n", label, ns);
  return ns;
}

constexpr int kWindow = 128;  // cross-core sender credit window

/// Cross-core stream: PEs 1..senders each send `per_sender` 64 B messages
/// to PE 0 in acked windows of kWindow.  Returns ns per delivered message
/// from PE 0's first delivery to its last.
double CrossCoreNs(int senders, int per_sender) {
  MachineConfig cfg;
  cfg.npes = senders + 1;
  cfg.aggregate_sends = 0;
  const long total = static_cast<long>(senders) * per_sender;
  double ns = 0;
  RunConverse(cfg, [&](int pe, int np) {
    const int ack = CmiRegisterHandler([](void*) {});
    long received = 0;
    std::int64_t t_first = 0;
    std::vector<int> window(static_cast<std::size_t>(np), 0);
    const int sink = CmiRegisterHandler([&](void* msg) {
      if (received++ == 0) t_first = util::NowNs();
      const int src = CmiMsgSourcePe(msg);
      if (++window[static_cast<std::size_t>(src)] == kWindow) {
        window[static_cast<std::size_t>(src)] = 0;
        void* a = CmiMakeMessage(ack, nullptr, 0);
        CmiSyncSendAndFree(static_cast<unsigned>(src), CmiMsgTotalSize(a), a);
      }
      if (received == total) {
        ns = static_cast<double>(util::NowNs() - t_first) /
             static_cast<double>(total - 1);
        ConverseBroadcastExit();
      }
    });
    if (pe != 0) {
      char payload[64];
      std::memset(payload, 'x', sizeof(payload));
      for (int i = 1; i <= per_sender; ++i) {
        void* m = CmiMakeMessage(sink, payload, sizeof(payload));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
        if (i % kWindow == 0) CmiGetSpecificMsg(ack);
      }
    }
    CsdScheduler(-1);
  });
  return ns;
}

/// "nproc N, affinity K CPUs, <CPU model>" for the header line.
std::string HostDescriptor() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "nproc " + std::to_string(std::thread::hardware_concurrency()) +
         ", affinity " + std::to_string(usable) + " CPUs, " + model;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonInit("overhead_breakdown", argc, argv);
  if (bench::QuickRun()) g_reps = 20000;
  std::printf("# Converse software overhead breakdown (per message, %d reps)\n",
              g_reps);
  std::printf("# host: %s\n", HostDescriptor().c_str());
  std::printf("# in-process machine, payload 64 B; 1 PE unless noted\n");
  double alloc_ns = 0, dispatch_ns = 0, path_ns = 0, queue_ns = 0;

  RunConverse(1, [&](int pe, int) {
    if (pe != 0) return;
    char payload[64];
    std::memset(payload, 'p', sizeof(payload));

    int sink = CmiRegisterHandler([](void*) {});
    int second = CmiRegisterHandler([](void* msg) { CmiFree(msg); });
    int first = CmiRegisterHandler([second](void* msg) {
      CmiGrabBuffer(&msg);
      CmiSetHandler(msg, second);
      CsdEnqueue(msg);
    });

    alloc_ns = TimeNs("CmiAlloc + header fill + payload copy + free", [&] {
      for (int i = 0; i < g_reps; ++i) {
        void* m = CmiMakeMessage(sink, payload, sizeof(payload));
        CmiFree(m);
      }
    });

    dispatch_ns = TimeNs("handler-table dispatch (index -> call)", [&] {
      void* m = CmiMakeMessage(sink, payload, sizeof(payload));
      for (int i = 0; i < g_reps; ++i) {
        CmiGetHandlerFunction(m)(m);
      }
      CmiFree(m);
    });

    path_ns = TimeNs("full path: alloc+send(self)+deliver+free", [&] {
      for (int i = 0; i < g_reps; ++i) {
        void* m = CmiMakeMessage(sink, payload, sizeof(payload));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
        CmiDeliverMsgs(1);
      }
    });

    queue_ns = TimeNs("scheduler queue: grab+enqueue+dequeue+dispatch", [&] {
      for (int i = 0; i < g_reps; ++i) {
        void* m = CmiMakeMessage(first, payload, sizeof(payload));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
        CmiDeliverMsgs(1);
        CsdScheduler(1);
      }
    });
  });

  // Broadcast case: send-side cost of a 4-way CmiSyncBroadcastAllAndFree
  // (one serialized copy per remote destination, original delivered to
  // self), normalized per destination PE.
  constexpr int kBcastPes = 4;
  const int bcast_reps = g_reps / 20;
  double bcast_ns = 0;
  RunConverse(kBcastPes, [&](int pe, int np) {
    const long expected = bcast_reps + 64;  // +64 warmup broadcasts
    long got = 0;
    int sink = CmiRegisterHandler([&](void*) {
      if (++got == expected) CsdExitScheduler();
    });
    if (pe == 0) {
      char payload[64];
      std::memset(payload, 'b', sizeof(payload));
      // Warmup round so every PE's in-queue is hot.
      for (int i = 0; i < 64; ++i) {
        void* m = CmiMakeMessage(sink, payload, sizeof(payload));
        CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
      }
      const auto t0 = util::NowNs();
      for (int i = 0; i < bcast_reps; ++i) {
        void* m = CmiMakeMessage(sink, payload, sizeof(payload));
        CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
      }
      const auto t1 = util::NowNs();
      bcast_ns = static_cast<double>(t1 - t0) / bcast_reps / np;
      std::printf("%-44s %10.1f ns/msg\n",
                  "broadcast-all send side (per destination)", bcast_ns);
    }
    CsdScheduler(-1);
  });

  // Cross-core rows: aggregation off, windows multiple of kWindow.
  const int stream_msgs = (g_reps / 2 / kWindow) * kWindow;
  const double oneway_ns = CrossCoreNs(1, stream_msgs);
  std::printf("%-44s %10.1f ns/msg\n",
              "cross-core one-way send -> remote handler", oneway_ns);
  const double fanin_ns = CrossCoreNs(3, stream_msgs);
  std::printf("%-44s %10.1f ns/msg\n", "cross-core fan-in 3 -> 1 (per message)",
              fanin_ns);

  const double sched_extra = queue_ns - path_ns;
  std::printf("%-44s %10.1f ns/msg\n",
              "=> scheduling extra (only queue users pay)",
              sched_extra > 0 ? sched_extra : 0.0);

  bench::JsonAdd("alloc_fill_copy_free_ns", alloc_ns, "ns");
  bench::JsonAdd("dispatch_ns", dispatch_ns, "ns");
  bench::JsonAdd("full_path_ns", path_ns, "ns");
  bench::JsonAdd("sched_queue_path_ns", queue_ns, "ns");
  bench::JsonAdd("broadcast_per_dest_ns", bcast_ns, "ns");
  bench::JsonAdd("crosscore_oneway_ns", oneway_ns, "ns");
  bench::JsonAdd("crosscore_fanin3_ns", fanin_ns, "ns");

  // Sanity: on a ~1ns/instruction host, "a few tens of instructions" means
  // the non-copy overhead should be well under a microsecond.
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("# claim-check %-52s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  };
  check(dispatch_ns < 1000, "dispatch costs tens of ns (tens of instructions)");
  check(path_ns < 5000, "full software path under 5 us on modern hardware");
  check(sched_extra < 2000, "scheduling adder is sub-2us here (9-15us on 1996 hosts)");
  failures += bench::JsonFlush();
  return failures == 0 ? 0 : 1;
}

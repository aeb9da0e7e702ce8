// The three in-process workloads: fanin, pingpong and exchange.  Each is
// one Converse program; every PE runs rounds of fixed work that end with
// EndRound (drain, flush, conservation all-reduce).  A run starts several
// machines back to back (see Instances) and pools their rounds.
#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "bench.h"

namespace perfbench {

using namespace converse;

namespace {

constexpr std::size_t kSmall = 64;  // small-message payload bytes

MachineConfig BaseInproc(int npes) {
  MachineConfig cfg;
  cfg.npes = npes;
  cfg.transport = CmiTransport::kInproc;
  cfg.nnodes = 1;
  cfg.ring_capacity = 1024;
  cfg.idle_spin_us = 0.0;  // block at once when idle: the default users get
  cfg.agg_max_msg = 512;
  cfg.agg_frame_bytes = 3072;
  cfg.agg_frame_msgs = 32;
  cfg.agg_solo_bypass = true;
  cfg.bcast_share_min = 4096;
  cfg.spantree_branching = 4;
  return cfg;
}

// Up to four PEs, never more than the CPUs this process may run on.
int InprocPes() { return std::clamp(UsableCpus(), 2, 4); }

/// What one PE's program sees: its context, the run's schedule (PE 0
/// reads it) and the ledger (PE 0 appends rounds).
struct PeRun {
  PeCtx& c;
  const Options& o;
  Schedule& sch;
  Ledger& led;
};

/// Runs `body` on every PE of Instances(o) machines in turn, each for an
/// equal share of the run, and folds every machine's counters into one
/// ledger.  Faults are planted in the first machine only.
Ledger RunInproc(const Options& o, const MachineConfig& cfg, int plant_pe,
                 std::uint64_t plant_at, const std::vector<int>& receivers,
                 const std::vector<int>& waiters,
                 const std::function<void(PeRun&)>& body) {
  Ledger led;
  const int instances = Instances(o, 0.4);
  Options slice = o;
  slice.seconds = o.seconds / instances;
  for (int inst = 0; inst < instances; ++inst) {
    TimeInprocSetup(cfg, kSetupRepsInproc, led.setup_s);
    std::vector<PeCtx> ctx(static_cast<std::size_t>(cfg.npes));
    for (int pe = 0; pe < cfg.npes; ++pe) {
      PeCtx& c = ctx[static_cast<std::size_t>(pe)];
      c.Init(pe, cfg.npes, slice, 1);
      if (pe != plant_pe || inst > 0) c.plant = Plant::kNone;
      c.plant_at = plant_at;
    }
    Schedule sch;
    RunConverse(cfg, [&](int pe, int) {
      PeRun run{ctx[static_cast<std::size_t>(pe)], slice, sch, led};
      body(run);
    });
    std::vector<double> lat;
    std::uint64_t seen = 0;
    for (PeCtx& c : ctx) {
      FoldPe(led, c);
      lat.insert(lat.end(), c.lat_us.begin(), c.lat_us.end());
      seen += c.lat_us.Seen();
    }
    FoldLatency(led, std::move(lat), seen);
    FoldProcess(led, ctx[0]);
    for (int pe : waiters) {
      led.wait_s_traced += ctx[static_cast<std::size_t>(pe)].wait_s_traced;
    }
    for (int pe : receivers) {
      led.busy_s_traced += ctx[static_cast<std::size_t>(pe)].tr.BusyS(
                               kSpanHandler) *
                           Tracer::kSampleEvery;
    }
  }
  led.waiting_pes = static_cast<int>(waiters.size());
  led.busy_pes = static_cast<int>(receivers.size());
  CountRoundMessages(led, 0.0);
  // The process's high-water mark over the whole run: every machine, the
  // set-up machines and the benchmark's own reservoirs.
  led.rss_peak_mb = PeakRssMb();
  led.rss_machines = instances;
  return led;
}

RoundRec Round(Mode mode, std::uint64_t t0, std::uint64_t t_data,
               std::uint64_t t_end, double msgs, double bytes) {
  RoundRec r;
  r.mode = mode;
  r.round_s = static_cast<double>(t_end - t0) * 1e-9;
  r.data_s = static_cast<double>(t_data - t0) * 1e-9;
  r.msgs = msgs;
  r.bytes = bytes;
  r.bytes_s = r.data_s;
  return r;
}

}  // namespace

MachineConfig FaninConfig() {
  MachineConfig cfg = BaseInproc(InprocPes());
  cfg.aggregate_sends = 0;  // every message takes its own ring slot
  return cfg;
}

MachineConfig PingpongConfig() {
  MachineConfig cfg = BaseInproc(2);
  cfg.aggregate_sends = 1;  // the solo-flush bypass must keep out of the way
  return cfg;
}

MachineConfig ExchangeConfig() {
  MachineConfig cfg = BaseInproc(InprocPes());
  cfg.aggregate_sends = 1;
  return cfg;
}

// ---- fanin --------------------------------------------------------------
// PEs 1..n-1 stream 64 B messages to PE 0 under a credit window of kWindow
// messages; PE 0 acks each window.  Aggregation is off.

Ledger RunFanin(const Options& o) {
  constexpr int kWindow = 128;
  constexpr int kWindowsPerRound = 64;
  const MachineConfig cfg = FaninConfig();
  const int senders = cfg.npes - 1;
  const double msgs_per_round =
      static_cast<double>(senders) * kWindowsPerRound * kWindow;
  std::vector<int> sender_pes;
  for (int pe = 1; pe < cfg.npes; ++pe) sender_pes.push_back(pe);

  // Planted fault: mid-window on PE 1, away from any window or round end.
  return RunInproc(o, cfg, 1, 4999, {0}, sender_pes, [&](PeRun& run) {
    PeCtx& c = run.c;
    RegisterMarker(c);
    const int ack = CmiRegisterHandler([](void*) {});
    const int data = CmiRegisterHandler([&c, ack](void* m) {
      HandlerTimer ht(c);
      const Stamp st = ReceiveData(c, m, 1, false);
      if ((st.seq + 1) % kWindow == 0) {
        void* a = CmiMakeMessage(ack, nullptr, 0);
        CmiSyncSendAndFree(st.src, static_cast<unsigned>(CmiMsgTotalSize(a)),
                           a);
      }
      if (st.flags & kLastOfRound) WakeIfWaiting(c);
    });

    Mode m = kWarmup;
    if (c.pe == 0) {
      run.sch.Start(run.o);
      while (m != kStop) {
        const Mode cur = c.mode;
        const std::uint64_t t0 = NowNs();
        WaitUntil(c, [&c, senders] { return c.lasts[c.round & 1] >= senders; });
        const std::uint64_t t1 = NowNs();
        m = EndRound(c, run.sch.Next(NowS()));
        run.led.AddRound(Round(cur, t0, t1, NowNs(), msgs_per_round,
                                       msgs_per_round * kSmall));
      }
      return;
    }
    while (m != kStop) {
      for (int w = 0; w < kWindowsPerRound; ++w) {
        const std::uint64_t t0 = NowNs();
        for (int i = 0; i < kWindow; ++i) {
          SendData(c, data, 0, 0, 1, kSmall,
                   w == kWindowsPerRound - 1 && i == kWindow - 1);
        }
        const std::uint64_t t1 = NowNs();
        CmiGetSpecificMsg(ack);  // the MMI reclaims the empty ack
        const std::uint64_t t2 = NowNs();
        if (c.mode == kPlain) c.lat_us.Add(static_cast<double>(t2 - t0) * 1e-3);
        if (c.Tracing()) c.wait_s_traced += static_cast<double>(t2 - t1) * 1e-9;
      }
      m = EndRound(c, kWarmup);
    }
  });
}

// ---- pingpong -----------------------------------------------------------
// PE 0 sends one 64 B ping; PE 1's handler answers with a 64 B pong; PE 0's
// handler sends the next ping.  One message in flight, aggregation on.

Ledger RunPingpong(const Options& o) {
  constexpr int kTripsPerRound = 200;
  return RunInproc(o, PingpongConfig(), 0, 1000, {1}, {0}, [&](PeRun& run) {
    PeCtx& c = run.c;
    RegisterMarker(c);
    int trip = 0;
    std::uint64_t ping_ns = 0;
    int pong = -1;
    const int ping = CmiRegisterHandler([&c, &pong](void* m) {
      HandlerTimer ht(c);
      const Stamp st = ReceiveData(c, m, 1, false);
      const bool last = (st.flags & kLastOfRound) != 0;
      SendData(c, pong, 0, 0, 1, kSmall, last);
      if (last) WakeIfWaiting(c);
    });
    pong = CmiRegisterHandler([&c, &trip, &ping_ns, ping](void* m) {
      const std::uint64_t now = NowNs();
      HandlerTimer ht(c);
      const Stamp st = ReceiveData(c, m, 1, false);
      const double rtt_s = static_cast<double>(now - ping_ns) * 1e-9;
      if (c.mode == kPlain) c.lat_us.Add(rtt_s * 0.5e6);
      if (c.Tracing()) c.wait_s_traced += rtt_s;
      if (st.flags & kLastOfRound) {
        WakeIfWaiting(c);
        return;
      }
      ++trip;
      ping_ns = NowNs();
      SendData(c, ping, 1, 0, 1, kSmall, trip == kTripsPerRound - 1);
    });

    Mode m = kWarmup;
    if (c.pe == 0) run.sch.Start(run.o);
    while (m != kStop) {
      const Mode cur = c.mode;
      const std::uint64_t t0 = NowNs();
      if (c.pe == 0) {
        trip = 0;
        ping_ns = NowNs();
        SendData(c, ping, 1, 0, 1, kSmall, false);
      }
      WaitUntil(c, [&c] { return c.lasts[c.round & 1] >= 1; });
      const std::uint64_t t1 = NowNs();
      m = EndRound(c, c.pe == 0 ? run.sch.Next(NowS()) : kWarmup);
      if (c.pe == 0) {
        const double msgs = 2.0 * kTripsPerRound;
        run.led.AddRound(
            Round(cur, t0, t1, NowNs(), msgs, msgs * kSmall));
      }
    }
  });
}

// ---- exchange -----------------------------------------------------------
// A BSP step: every PE sends kUpdates 64 B updates to every other PE and a
// 16 KiB halo to each ring neighbour.  Every arrival is re-enqueued through
// CsdEnqueue and handled from the scheduler queue; the step ends with the
// conservation all-reduce.

namespace {

/// One PE's clock readings for one step.
struct StepTimes {
  std::uint64_t start = 0;      // the PE began the step
  std::uint64_t halo_sent = 0;  // it began sending its halos
  std::uint64_t halo_in = 0;    // its last halo reached the arrival handler
  std::uint64_t done = 0;       // it had handled all its step data
};

/// A PE's readings by step parity, on a cache line of its own.  Each PE
/// writes only its own entry; PE 0 reads every entry of a step once that
/// step's all-reduce has returned, which orders the writes before the read,
/// and no PE can start the step after next before PE 0 joins it.
struct alignas(64) PeStepTimes {
  StepTimes by_parity[2];
};

}  // namespace

Ledger RunExchange(const Options& o) {
  constexpr int kUpdates = 128;
  constexpr std::size_t kHalo = 16384;
  const MachineConfig cfg = ExchangeConfig();
  const int n = cfg.npes;
  const double halos = n == 2 ? 2.0 : 2.0 * n;  // one per ring neighbour
  const double msgs_per_step =
      static_cast<double>(n) * (n - 1) * kUpdates + halos;
  std::vector<int> all;
  for (int pe = 0; pe < n; ++pe) all.push_back(pe);
  std::vector<PeStepTimes> times(static_cast<std::size_t>(n));

  // Planted fault: PE 0's 38th update to PE 1 in the first step.
  return RunInproc(o, cfg, 0, 37, all, all, [&](PeRun& run) {
    PeCtx& c = run.c;
    PeStepTimes& mine = times[static_cast<std::size_t>(c.pe)];
    RegisterMarker(c);
    const int queued = CmiRegisterHandler([&c](void* m) {
      HandlerTimer ht(c);
      const Stamp st = ReceiveData(c, m, 1, true);
      if (st.flags & kLastOfRound) WakeIfWaiting(c);
    });
    const int net = CmiRegisterHandler([&c, &mine, queued](void* m) {
      HandlerTimer ht(c);
      NoteDwell(c, m);
      if (CmiMsgPayloadSize(m) == kHalo) {
        Stamp st;
        std::memcpy(&st, CmiMsgPayload(m), sizeof(st));
        mine.by_parity[st.round & 1].halo_in = NowNs();
      }
      CmiGrabBuffer(&m);
      CmiSetHandler(m, queued);
      const bool sampled = c.Sample(kSpanEnqueue);
      const std::uint64_t t0 = sampled ? NowNs() : 0;
      CsdEnqueue(m);
      if (sampled) c.tr.Add(kSpanEnqueue, c.pe, t0, NowNs());
    });

    const int np = c.npes;
    const int right = (c.pe + 1) % np;
    const int left = (c.pe + np - 1) % np;
    Mode m = kWarmup;
    if (c.pe == 0) run.sch.Start(run.o);
    while (m != kStop) {
      const Mode cur = c.mode;
      const int parity = static_cast<int>(c.round & 1);
      StepTimes& st = mine.by_parity[parity];
      const std::uint64_t t0 = NowNs();
      st.start = t0;
      for (int d = 1; d < np; ++d) {
        const int q = (c.pe + d) % np;
        const bool neighbour = q == right || q == left;
        for (int u = 0; u < kUpdates; ++u) {
          SendData(c, net, q, 0, 1, kSmall, !neighbour && u == kUpdates - 1);
        }
      }
      st.halo_sent = NowNs();
      SendData(c, net, right, 0, 1, kHalo, true);
      if (left != right) SendData(c, net, left, 0, 1, kHalo, true);
      const std::uint64_t tf = NowNs();
      CmiFlush();
      const std::uint64_t t1 = NowNs();
      if (c.Tracing()) c.tr.Add(kSpanFlush, c.pe, tf, t1);
      WaitUntil(c, [&c, np] { return c.lasts[c.round & 1] >= np - 1; });
      st.done = NowNs();
      if (c.Tracing()) {
        c.wait_s_traced += static_cast<double>(st.done - t1) * 1e-9;
      }
      m = EndRound(c, c.pe == 0 ? run.sch.Next(NowS()) : kWarmup);
      if (c.pe == 0) {
        const std::uint64_t t2 = NowNs();
        StepTimes all_pes = times[0].by_parity[parity];
        for (const PeStepTimes& pt : times) {
          const StepTimes& s = pt.by_parity[parity];
          all_pes.start = std::min(all_pes.start, s.start);
          all_pes.halo_sent = std::min(all_pes.halo_sent, s.halo_sent);
          all_pes.halo_in = std::max(all_pes.halo_in, s.halo_in);
          all_pes.done = std::max(all_pes.done, s.done);
        }
        // The step (closing all-reduce included) is the unit of steps_per_s
        // and latency; messages count over the data phase of every PE, and
        // halo bytes from the first halo sent to the last one arriving.
        RoundRec r;
        r.mode = cur;
        r.round_s = static_cast<double>(t2 - t0) * 1e-9;
        r.data_s = static_cast<double>(all_pes.done - all_pes.start) * 1e-9;
        r.msgs = msgs_per_step;
        r.bytes = halos * static_cast<double>(kHalo);
        r.bytes_s =
            static_cast<double>(all_pes.halo_in - all_pes.halo_sent) * 1e-9;
        run.led.AddRound(r);
        if (cur == kPlain) c.lat_us.Add(static_cast<double>(t2 - t0) * 1e-3);
      }
    }
  });
}

}  // namespace perfbench

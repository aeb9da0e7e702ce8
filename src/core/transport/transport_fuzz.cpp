// Fuzz workload for the transport layer (converse/transport.h): a
// sim-driven loopback multi-node machine whose inter-node traffic crosses
// the virtual wire, with deterministic disconnect injection and a
// conservation oracle
//
//     delivered == sent - wire_dropped
//
// checked against the workload's own logical send/receive counts.  The
// structure deliberately mirrors src/sim/fuzz.cpp (per-PE PRNG streams
// derived from the case seed, root actions + handler fan-out, run to
// global quiescence) so a case is a pure function of its parameters and
// seeds replay bit-for-bit.
#include "converse/transport.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "converse/cmi.h"
#include "converse/csd.h"
#include "converse/fuzz.h"
#include "converse/machine.h"
#include "converse/msg.h"
#include "converse/stream.h"
#include "converse/util/rng.h"

namespace converse::transport {
namespace {

struct FuzzWire {
  std::uint32_t ttl;   // remaining fan-out depth
  std::uint32_t fill;  // payload size marker (checked for wire integrity)
};

struct PerPe {
  util::Xoshiro256 rng{0};
  std::uint64_t sent_net = 0;  // logical deliveries my sends should cause
  std::uint64_t sent_imm = 0;
  std::uint64_t recv_net = 0;
  std::uint64_t recv_imm = 0;
  std::uint64_t payload_bad = 0;  // delivered bytes that did not round-trip
};

struct Ctx {
  TransportFuzzParams p;
  std::vector<std::unique_ptr<PerPe>> pes;
  CmiStats final_stats;  // PE 0's snapshot at quiescence

  std::mutex fail_mu;
  std::string failure;
  void Fail(const std::string& what) {
    std::scoped_lock lk(fail_mu);
    if (failure.empty()) failure = what;
  }
};

util::Xoshiro256 PeStream(std::uint64_t seed, int pe) {
  util::SplitMix64 sm(seed ^ 0x7472616e73ull);  // 'trans'
  std::uint64_t s = 0;
  for (int i = 0; i <= pe + 1; ++i) s = sm.Next();
  return util::Xoshiro256(s);
}

void* MakeWire(int handler, std::uint32_t ttl, std::size_t extra) {
  void* msg = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                       sizeof(FuzzWire) + extra);
  CmiSetHandler(msg, handler);
  auto* w = static_cast<FuzzWire*>(CmiMsgPayload(msg));
  w->ttl = ttl;
  w->fill = static_cast<std::uint32_t>(extra);
  // Deterministic payload pattern so a wire-corrupted body is caught at
  // the far end, not just a miscounted record.
  std::memset(w + 1, static_cast<int>(0x5a ^ (extra & 0xff)), extra);
  return msg;
}

bool PayloadOk(const void* msg) {
  const auto* w = static_cast<const FuzzWire*>(
      CmiMsgPayload(const_cast<void*>(msg)));
  const auto* body = reinterpret_cast<const unsigned char*>(w + 1);
  const auto want =
      static_cast<unsigned char>(0x5a ^ (w->fill & 0xff));
  for (std::uint32_t i = 0; i < w->fill; ++i) {
    if (body[i] != want) return false;
  }
  return true;
}

void SendData(Ctx& ctx, PerPe& me, int h_data, std::uint32_t ttl) {
  const int dest = static_cast<int>(
      me.rng.Below(static_cast<std::uint64_t>(ctx.p.npes)));
  // Mostly small (aggregable), occasionally multi-KB so large records and
  // the shared-broadcast threshold region get exercised too.
  const std::size_t extra =
      me.rng.Below(16) == 0 ? 1024 + me.rng.Below(6144) : me.rng.Below(128);
  void* msg = MakeWire(h_data, ttl, extra);
  ++me.sent_net;
  CmiSyncSendAndFree(static_cast<unsigned>(dest),
                     static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
}

void SendBurst(Ctx& ctx, PerPe& me, int h_data) {
  const std::uint64_t burst = 4 + me.rng.Below(12);
  for (std::uint64_t i = 0; i < burst; ++i) SendData(ctx, me, h_data, 0);
}

void SendBcast(Ctx& ctx, PerPe& me, int h_data) {
  const std::size_t extra =
      me.rng.Below(4) == 0 ? 4096 + me.rng.Below(4096) : me.rng.Below(96);
  void* msg = MakeWire(h_data, 0, extra);
  me.sent_net += static_cast<std::uint64_t>(ctx.p.npes);
  CmiSyncBroadcastAllAndFree(static_cast<unsigned>(CmiMsgTotalSize(msg)),
                             msg);
}

void SendImm(Ctx& ctx, PerPe& me, int h_imm) {
  const int dest = static_cast<int>(
      me.rng.Below(static_cast<std::uint64_t>(ctx.p.npes)));
  void* msg = MakeWire(h_imm, 0, me.rng.Below(48));
  ++me.sent_imm;
  CmiSyncSendImmediateAndFree(static_cast<unsigned>(dest),
                              static_cast<unsigned>(CmiMsgTotalSize(msg)),
                              msg);
}

void RandomAction(Ctx& ctx, PerPe& me, int h_data, int h_imm,
                  std::uint32_t ttl_budget) {
  switch (me.rng.Below(8)) {
    case 0:
    case 1:
    case 2:
      SendData(ctx, me, h_data,
               static_cast<std::uint32_t>(me.rng.Below(ttl_budget + 1)));
      break;
    case 3:
      SendBurst(ctx, me, h_data);
      break;
    case 4:
    case 5:
      SendBcast(ctx, me, h_data);
      break;
    case 6:
      SendImm(ctx, me, h_imm);
      break;
    default:
      CmiFlush();
      break;
  }
}

void PeEntry(Ctx& ctx, int mype) {
  PerPe& me = *ctx.pes[static_cast<std::size_t>(mype)];
  me.rng = PeStream(ctx.p.seed, mype);

  int h_data = -1, h_imm = -1;
  h_data = CmiRegisterHandler([&ctx, &me, &h_data](void* msg) {
    FuzzWire w;
    std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
    ++me.recv_net;
    if (!PayloadOk(msg)) ++me.payload_bad;
    if (w.ttl > 0) {
      const std::uint64_t fanout = 1 + me.rng.Below(2);
      for (std::uint64_t i = 0; i < fanout; ++i) {
        SendData(ctx, me, h_data, w.ttl - 1);
      }
    }
  });
  h_imm = CmiRegisterHandler([&me](void* msg) {
    ++me.recv_imm;
    if (!PayloadOk(msg)) ++me.payload_bad;
  });

  for (int i = 0; i < ctx.p.actions; ++i) {
    RandomAction(ctx, me, h_data, h_imm, 2);
  }
  CsdScheduler(-1);
  if (mype == 0) ctx.final_stats = CmiGetStats();
}

}  // namespace

TransportFuzzResult RunTransportFuzzCase(const TransportFuzzParams& params) {
  TransportFuzzResult res;
  Ctx ctx;
  ctx.p = params;
  if (ctx.p.npes < 1) ctx.p.npes = 1;
  if (ctx.p.nnodes < 1) ctx.p.nnodes = 1;
  if (ctx.p.nnodes > ctx.p.npes) ctx.p.nnodes = ctx.p.npes;
  for (int i = 0; i < ctx.p.npes; ++i) {
    ctx.pes.push_back(std::make_unique<PerPe>());
  }

  SimConfig sim;
  sim.seed = params.seed;
  sim.report = &res.report;
  MachineConfig cfg;
  cfg.npes = ctx.p.npes;
  cfg.seed = params.seed;
  cfg.sim = &sim;
  cfg.aggregate_sends = params.aggregate ? 1 : 0;
  // Loopback multi-node: mynode stays -1, so the virtual wire carries
  // every inter-node record.  nnodes == npes is the socket backend's
  // one-PE-per-node shape; fewer nodes is the two-level SMP shape.
  cfg.transport =
      ctx.p.nnodes == ctx.p.npes ? CmiTransport::kSocket : CmiTransport::kSmpNode;
  cfg.nnodes = ctx.p.nnodes;
  cfg.wire_disconnect_rate = params.disconnect_rate;
  cfg.wire_disconnect_lost = params.disconnect_lost;
  cfg.wire_seed = params.seed ^ 0x77697265ull;
  cfg.wire_plant_lost = params.plant_lost ? 1 : 0;
  try {
    RunConverse(cfg, [&ctx](int pe, int) { PeEntry(ctx, pe); });
  } catch (const std::exception& e) {
    res.ok = false;
    res.failure = std::string("machine aborted: ") + e.what();
    return res;
  }

  res.wire_frames_sent = ctx.final_stats.wire_frames_sent;
  res.wire_dropped = ctx.final_stats.wire_dropped;
  res.wire_reconnects = ctx.final_stats.wire_reconnects;

  if (ctx.failure.empty() && !res.report.quiesced) {
    ctx.Fail("run did not end by global quiescence");
  }
  std::uint64_t sent_net = 0, recv_net = 0, sent_imm = 0, recv_imm = 0;
  std::uint64_t payload_bad = 0;
  for (const auto& pe : ctx.pes) {
    sent_net += pe->sent_net;
    recv_net += pe->recv_net;
    sent_imm += pe->sent_imm;
    recv_imm += pe->recv_imm;
    payload_bad += pe->payload_bad;
  }
  if (ctx.failure.empty() && payload_bad != 0) {
    ctx.Fail("payload corruption: a delivered body did not match the "
             "sender's deterministic fill pattern");
  }
  const std::uint64_t expected = sent_net - res.wire_dropped;
  if (ctx.failure.empty() && recv_net != expected) {
    char buf[224];
    std::snprintf(
        buf, sizeof(buf),
        "wire conservation violated: sent %llu regular messages, "
        "%llu dropped by injected disconnects, but %llu delivered "
        "(expected %llu)",
        static_cast<unsigned long long>(sent_net),
        static_cast<unsigned long long>(res.wire_dropped),
        static_cast<unsigned long long>(recv_net),
        static_cast<unsigned long long>(expected));
    ctx.Fail(buf);
  }
  if (ctx.failure.empty() && recv_imm != sent_imm) {
    ctx.Fail("immediate-lane conservation violated (the wire must never "
             "drop immediate records)");
  }
  if (ctx.failure.empty() && ctx.p.nnodes > 1 &&
      res.wire_frames_sent == 0) {
    ctx.Fail("multi-node run sent zero wire records: traffic bypassed the "
             "transport");
  }
  res.failure = ctx.failure;
  res.ok = res.failure.empty();
  return res;
}

const fuzz::Workload<TransportFuzzParams, TransportFuzzResult>&
TransportFuzzWorkload() {
  using P = TransportFuzzParams;
  using fuzz::At;
  using enum fuzz::Shrink;
  using enum fuzz::Print;
  static const fuzz::Workload<P, TransportFuzzResult> w{
      .mode = "--transport",
      .run = RunTransportFuzzCase,
      .print_ok =
          [](const P& p, const TransportFuzzResult& r) {
            std::printf(
                "%d pes / %d nodes, %llu wire records, %llu dropped, %llu "
                "reconnects, virtual time %.0f us",
                p.npes, p.nnodes,
                static_cast<unsigned long long>(r.wire_frames_sent),
                static_cast<unsigned long long>(r.wire_dropped),
                static_cast<unsigned long long>(r.wire_reconnects),
                r.report.final_virtual_us);
          },
      .budget = 64,
      .fields = {
          {.flag = "--pes", .at = At<&P::npes>, .shrink = kHalve, .step = 1,
           .floor = 2, .lo = 1, .caps = At<&P::nnodes>},
          {.flag = "--nodes", .at = At<&P::nnodes>, .shrink = kFloor,
           .step = 2, .floor = 2, .lo = 1},
          {.flag = "--actions", .at = At<&P::actions>, .shrink = kHalve,
           .step = 0, .floor = 1},
          {.flag = "--disconnect", .at = At<&P::disconnect_rate>,
           .shrink = kFloor, .step = 4, .print = kIfSet, .hi = 1},
          {.flag = "--lost", .at = At<&P::disconnect_lost>,
           .print = kWithPrev, .lo = 1},
          {.flag = "--agg", .at = At<&P::aggregate>, .shrink = kFloor,
           .step = 3, .print = kIfSet, .sets = 1},
          {.flag = "--plant-lost", .at = At<&P::plant_lost>, .print = kIfSet,
           .sets = 1},
      }};
  return w;
}

}  // namespace converse::transport

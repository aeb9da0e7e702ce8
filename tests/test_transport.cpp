// Transport layer tests (DESIGN.md "Transport interface"): wire codec
// framing, node/PE block topology, loopback multi-node machines (unicast,
// broadcast fan-out, immediates), transport counters and their single-node
// inertness pin, sim determinism across backends, and injected-disconnect
// conservation including the planted-loss self-test.
//
// Everything here is single-process: multi-node machines run in loopback
// mode (config.mynode == -1, every node hosted in this process over the
// virtual wire).  Real cross-process sockets are in test_transport_mp.cpp.
#include "test_helpers.h"

#include <cstring>
#include <string>
#include <vector>

#include "converse/cld.h"
#include "converse/transport.h"
#include "core/transport/wire.h"

using namespace converse;
using converse::ctu::PerPeCounters;
using detail::kWireRecBytes;
using detail::WireDecode;
using detail::WireEncode;
using detail::WireParser;
using detail::WireRec;

namespace {

WireRec SampleRec(std::uint32_t len, std::uint8_t kind) {
  WireRec r;
  r.length = len;
  r.dest_pe = 513;
  r.src_node = 7;
  r.kind = kind;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, EncodeDecodeRoundtrip) {
  for (std::uint8_t kind = detail::kWireMessage; kind <= detail::kWireGoodbye;
       ++kind) {
    const WireRec in = SampleRec(kind * 1000u, kind);
    unsigned char buf[kWireRecBytes];
    WireEncode(in, buf);
    WireRec out;
    ASSERT_TRUE(WireDecode(buf, &out)) << "kind " << int(kind);
    EXPECT_EQ(out.length, in.length);
    EXPECT_EQ(out.dest_pe, in.dest_pe);
    EXPECT_EQ(out.src_node, in.src_node);
    EXPECT_EQ(out.kind, in.kind);
  }
}

TEST(Wire, DecodeRejectsCorruption) {
  unsigned char buf[kWireRecBytes];
  WireEncode(SampleRec(64, detail::kWireMessage), buf);
  WireRec out;
  ASSERT_TRUE(WireDecode(buf, &out));
  // Any single flipped byte must fail magic or checksum validation.
  for (std::size_t i = 0; i < kWireRecBytes; ++i) {
    unsigned char bad[kWireRecBytes];
    std::memcpy(bad, buf, sizeof(bad));
    bad[i] ^= 0x40;
    EXPECT_FALSE(WireDecode(bad, &out)) << "flipped byte " << i;
  }
  // Out-of-range kinds are rejected even with a consistent checksum.
  for (std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{6},
                            std::uint8_t{255}}) {
    unsigned char raw[kWireRecBytes];
    WireEncode(SampleRec(64, kind), raw);
    EXPECT_FALSE(WireDecode(raw, &out)) << "kind " << int(kind);
  }
}

TEST(Wire, ParserReassemblesByteAtATime) {
  // Three records with distinct bodies, streamed one byte at a time — the
  // parser must produce exactly the three records, in order, intact.
  std::vector<unsigned char> stream;
  for (int i = 0; i < 3; ++i) {
    const std::string body = "record-body-" + std::to_string(i) +
                             std::string(static_cast<std::size_t>(i) * 37, 'x');
    WireRec r = SampleRec(static_cast<std::uint32_t>(body.size()),
                          detail::kWireMessage);
    r.dest_pe = static_cast<std::uint16_t>(i);
    unsigned char hdr[kWireRecBytes];
    WireEncode(r, hdr);
    stream.insert(stream.end(), hdr, hdr + kWireRecBytes);
    stream.insert(stream.end(), body.begin(), body.end());
  }

  WireParser p;
  int got = 0;
  for (unsigned char byte : stream) {
    p.Append(&byte, 1);
    WireRec rec;
    const unsigned char* body = nullptr;
    int rc;
    while ((rc = p.Next(&rec, &body)) == 1) {
      EXPECT_EQ(rec.dest_pe, got);
      const std::string want = "record-body-" + std::to_string(got) +
                               std::string(static_cast<std::size_t>(got) * 37,
                                           'x');
      ASSERT_EQ(rec.length, want.size());
      EXPECT_EQ(std::memcmp(body, want.data(), want.size()), 0);
      ++got;
    }
    ASSERT_NE(rc, -1);
  }
  EXPECT_EQ(got, 3);
  EXPECT_FALSE(p.mid_record());
}

TEST(Wire, ParserRejectsGarbage) {
  WireParser p;
  unsigned char junk[kWireRecBytes];
  for (std::size_t i = 0; i < sizeof(junk); ++i) {
    junk[i] = static_cast<unsigned char>(0xA5 ^ i);
  }
  p.Append(junk, sizeof(junk));
  WireRec rec;
  const unsigned char* body = nullptr;
  EXPECT_EQ(p.Next(&rec, &body), -1);
}

TEST(Wire, ParserPartialTailAndReset) {
  unsigned char hdr[kWireRecBytes];
  WireEncode(SampleRec(100, detail::kWireMessage), hdr);
  WireParser p;
  EXPECT_EQ(p.missing(), 0u);
  p.Append(hdr, 10);
  EXPECT_EQ(p.missing(), kWireRecBytes - 10);  // the rest of the header
  p.Append(hdr + 10, kWireRecBytes - 10);
  p.Append("short", 5);  // 5 of the promised 100 body bytes
  EXPECT_EQ(p.missing(), 95u);
  WireRec rec;
  const unsigned char* body = nullptr;
  EXPECT_EQ(p.Next(&rec, &body), 0);  // incomplete, not an error
  EXPECT_TRUE(p.mid_record());        // EOF here would mean a died peer
  p.Reset();                          // connection reset: drop the tail
  EXPECT_FALSE(p.mid_record());
  EXPECT_EQ(p.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Node/PE block topology
// ---------------------------------------------------------------------------

TEST(Topology, BlockMapInvariants) {
  // 7 PEs over 3 nodes: sizes {3,2,2}; every helper must agree.
  MachineConfig cfg;
  cfg.npes = 7;
  cfg.nnodes = 3;
  cfg.transport = CmiTransport::kSmpNode;
  RunConverse(cfg, [&](int pe, int npes) {
    ASSERT_EQ(CmiNumNodes(), 3);
    int total = 0;
    for (int node = 0; node < CmiNumNodes(); ++node) {
      const int first = CmiNodeFirst(node);
      const int size = CmiNodeSize(node);
      EXPECT_GE(size, npes / 3);
      EXPECT_LE(size, npes / 3 + 1);
      for (int p = first; p < first + size; ++p) {
        EXPECT_EQ(CmiNodeOf(p), node);
      }
      total += size;
    }
    EXPECT_EQ(total, npes);
    EXPECT_EQ(CmiMyNode(), CmiNodeOf(pe));
    EXPECT_GE(pe, CmiNodeFirst(CmiMyNode()));
    EXPECT_LT(pe, CmiNodeFirst(CmiMyNode()) + CmiNodeSize(CmiMyNode()));
  });
}

TEST(Topology, SingleNodeIsDegenerate) {
  RunConverse(3, [&](int pe, int npes) {
    EXPECT_EQ(CmiMyNode(), 0);
    EXPECT_EQ(CmiNumNodes(), 1);
    EXPECT_EQ(CmiNodeOf(pe), 0);
    EXPECT_EQ(CmiNodeFirst(0), 0);
    EXPECT_EQ(CmiNodeSize(0), npes);
  });
}

// ---------------------------------------------------------------------------
// Loopback multi-node machines
// ---------------------------------------------------------------------------

namespace {

MachineConfig SmpLoopback(int npes, int nnodes) {
  MachineConfig cfg;
  cfg.npes = npes;
  cfg.nnodes = nnodes;
  cfg.transport =
      nnodes == npes ? CmiTransport::kSocket : CmiTransport::kSmpNode;
  return cfg;
}

}  // namespace

TEST(TransportLoopback, PingpongAcrossNodes) {
  // PE 0 (node 0) and PE 3 (node 1) ping-pong; the unicasts cross the
  // virtual wire, so records must be created and counted.
  constexpr int kRounds = 32;
  std::atomic<int> rounds{0};
  std::atomic<std::uint64_t> frames{0};
  RunConverse(SmpLoopback(4, 2), [&](int pe, int) {
    ASSERT_NE(CmiNodeOf(0), CmiNodeOf(3));
    int h = -1;
    h = CmiRegisterHandler([&h, &rounds](void* msg) {
      int r;
      std::memcpy(&r, CmiMsgPayload(msg), sizeof(r));
      if (r >= kRounds) {
        rounds = r;
        ConverseBroadcastExit();
        return;
      }
      const int next = r + 1;
      void* m = CmiMakeMessage(h, &next, sizeof(next));
      CmiSyncSendAndFree(CmiMyPe() == 0 ? 3 : 0, CmiMsgTotalSize(m), m);
    });
    if (pe == 0) {
      const int zero = 0;
      void* m = CmiMakeMessage(h, &zero, sizeof(zero));
      CmiSyncSendAndFree(3, CmiMsgTotalSize(m), m);
    }
    CsdScheduler(-1);
    if (pe == 0 || pe == 3) {
      frames += CmiGetStats().wire_frames_sent;
    }
  });
  EXPECT_EQ(rounds.load(), kRounds);
  // Every leg of the pingpong is one record; both directions count.
  EXPECT_GE(frames.load(), static_cast<std::uint64_t>(kRounds));
}

TEST(TransportLoopback, BroadcastReachesEveryPeOncePerRemoteNode) {
  // A broadcast from PE 0 over 3 nodes must land exactly once everywhere
  // and put exactly one node-cast record per *remote node* on the wire.
  constexpr int kNpes = 6, kNnodes = 3;
  PerPeCounters hits(kNpes);
  std::atomic<std::uint64_t> root_frames{0};
  RunConverse(SmpLoopback(kNpes, kNnodes), [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      hits.Add(CmiMyPe());
      CsdExitScheduler();  // local exit: keeps the frame accounting exact
    });
    if (pe == 0) {
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
    }
    CsdScheduler(-1);
    if (pe == 0) root_frames = CmiGetStats().wire_frames_sent;
  });
  for (int i = 0; i < kNpes; ++i) EXPECT_EQ(hits.Get(i), 1);
  EXPECT_EQ(root_frames.load(), static_cast<std::uint64_t>(kNnodes - 1));
}

TEST(TransportLoopback, SharedBlockRemoteFanout) {
  // A share-threshold-sized broadcast crossing nodes: each remote node
  // rebuilds ONE shared block and fans out views, so payload copies stay
  // one per node, not one per PE.
  constexpr int kNpes = 6, kNnodes = 2;
  constexpr std::size_t kBytes = 4096;
  PerPeCounters good(kNpes);
  std::atomic<std::uint64_t> blocks{0}, views{0}, copies{0};
  MachineConfig cfg = SmpLoopback(kNpes, kNnodes);
  cfg.bcast_share_min = 1024;
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void* msg) {
      const auto* p = static_cast<const unsigned char*>(CmiMsgPayload(msg));
      bool ok = CmiMsgPayloadSize(msg) == kBytes;
      for (std::size_t i = 0; ok && i < kBytes; ++i) {
        ok = p[i] == static_cast<unsigned char>((i * 31 + 7) & 0xff);
      }
      if (ok) good.Add(CmiMyPe());
      CsdExitScheduler();  // local: exit broadcasts would skew the counters
    });
    if (pe == 0) {
      void* m = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                         kBytes);
      CmiSetHandler(m, h);
      auto* p = static_cast<unsigned char*>(CmiMsgPayload(m));
      for (std::size_t i = 0; i < kBytes; ++i) {
        p[i] = static_cast<unsigned char>((i * 31 + 7) & 0xff);
      }
      CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
    }
    CsdScheduler(-1);
    const CmiStats s = CmiGetStats();
    blocks += s.bcast_shared_blocks;
    views += s.bcast_shared_views;
    copies += s.bcast_payload_copies;
  });
  for (int i = 0; i < kNpes; ++i) EXPECT_EQ(good.Get(i), 1);
  // One block at the root plus one per remote node; every PE except the
  // root dispatches a view (the root consumes the original message).
  EXPECT_EQ(blocks.load(), static_cast<std::uint64_t>(kNnodes));
  EXPECT_EQ(views.load(), static_cast<std::uint64_t>(kNpes - 1));
  // Copies: the root's one staging copy plus one rebuild per remote node.
  EXPECT_EQ(copies.load(), static_cast<std::uint64_t>(kNnodes));
}

TEST(TransportLoopback, ImmediatesCrossNodes) {
  // Immediate (out-of-band) messages ride the wire's control lane: they
  // must arrive across nodes and be counted as records.
  constexpr int kImms = 16;
  std::atomic<int> got{0};
  RunConverse(SmpLoopback(4, 2), [&](int pe, int) {
    int h = CmiRegisterHandler([&got](void*) {
      if (++got == kImms) ConverseBroadcastExit();
    });
    if (pe == 0) {
      for (int i = 0; i < kImms; ++i) {
        void* m = CmiMakeMessage(h, &i, sizeof(i));
        CmiSyncSendImmediateAndFree(3, CmiMsgTotalSize(m), m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(got.load(), kImms);
}

TEST(TransportLoopback, StealSeedsCrossNodes) {
  // Cld kSteal seeds spawned on one node must take root across the whole
  // machine with steal-protocol traffic crossing the wire transparently.
  constexpr int kSeeds = 64;
  std::atomic<int> rooted{0};
  RunConverse(SmpLoopback(4, 2), [&](int pe, int) {
    CldSetStrategy(CldStrategy::kSteal);
    int h_done = CmiRegisterHandler([](void*) { ConverseBroadcastExit(); });
    int h_ack = CmiRegisterHandler([&, h_done](void*) {
      if (++rooted == kSeeds) {
        void* m = CmiMakeMessage(h_done, nullptr, 0);
        CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
      }
    });
    int h_seed = CmiRegisterHandler([h_ack](void* msg) {
      CldChargeTime(3.0);
      void* m = CmiMakeMessage(h_ack, nullptr, 0);
      CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      CmiFree(msg);
    });
    if (pe == 0) {
      for (int i = 0; i < kSeeds; ++i) {
        void* m = CmiMakeMessage(h_seed, &i, sizeof(i));
        CldEnqueue(m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(rooted.load(), kSeeds);
}

// ---------------------------------------------------------------------------
// Transport counters (satellite: CmiStats wire_* family)
// ---------------------------------------------------------------------------

TEST(TransportStats, InertOnSingleNodeMachines) {
  // Pin: a single-node machine has NO transport (MakeTransport returns
  // nullptr), so every wire counter stays exactly zero no matter how much
  // in-process traffic flows.  This is the in-proc zero-overhead contract.
  constexpr int kMsgs = 100;
  std::atomic<int> got{0};
  std::atomic<std::uint64_t> wire_total{0};
  RunConverse(4, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      if (++got == kMsgs + 4) ConverseBroadcastExit();
    });
    if (pe == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        void* m = CmiMakeMessage(h, &i, sizeof(i));
        CmiSyncSendAndFree(i % 4, CmiMsgTotalSize(m), m);
      }
      void* b = CmiMakeMessage(h, nullptr, 0);
      CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(b), b);
    }
    CsdScheduler(-1);
    const CmiStats s = CmiGetStats();
    wire_total += s.wire_frames_sent + s.wire_bytes_sent +
                  s.wire_bytes_received + s.wire_syscalls +
                  s.wire_reconnects + s.wire_dropped;
  });
  EXPECT_EQ(wire_total.load(), 0u);
}

TEST(TransportStats, SenderCountersMatchWireTraffic) {
  // Cross-node unicasts: the sending PE is charged frames + bytes, and
  // the node-level received-bytes mirror shows up in every local PE's
  // snapshot identically.
  constexpr int kMsgs = 20;
  constexpr std::size_t kBody = 256;
  std::atomic<int> got{0};
  std::atomic<std::uint64_t> frames0{0}, bytes0{0};
  std::vector<std::uint64_t> mirrored(4, ~0ull);
  MachineConfig cfg = SmpLoopback(4, 2);
  // Frames are the wire unit: with aggregation on these 20 small sends
  // batch into a schedule-dependent number of records. This test pins
  // the exact per-message accounting, so force the plain path even when
  // CONVERSE_AGG=1 is in the environment (the loopback and fuzz tests
  // cover the aggregated wire).
  cfg.aggregate_sends = 0;
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      if (++got == kMsgs) ConverseBroadcastExit();
    });
    if (pe == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        void* m = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                           kBody);
        CmiSetHandler(m, h);
        CmiSyncSendAndFree(2, CmiMsgTotalSize(m), m);  // node 0 -> node 1
      }
    }
    CsdScheduler(-1);
    const CmiStats s = CmiGetStats();
    if (pe == 0) {
      frames0 = s.wire_frames_sent;
      bytes0 = s.wire_bytes_sent;
    }
    mirrored[static_cast<std::size_t>(pe)] = s.wire_bytes_received;
  });
  EXPECT_EQ(frames0.load(), static_cast<std::uint64_t>(kMsgs));
  // Each record is a 16-byte header plus the full message image.
  EXPECT_GE(bytes0.load(),
            static_cast<std::uint64_t>(kMsgs) *
                (detail::kWireRecBytes + kBody));
  // Node-level mirror: identical on every PE of the machine.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(mirrored[0], mirrored[static_cast<std::size_t>(i)]);
}

// ---------------------------------------------------------------------------
// Sim-driven determinism + fault conservation (converse/transport.h)
// ---------------------------------------------------------------------------

TEST(TransportSim, TwoReplaysSameTraceHash) {
  // Acceptance criterion: the deterministic sim driving a socket-shaped
  // machine (nnodes == npes) produces the identical trace hash when the
  // same seed is replayed.
  transport::TransportFuzzParams p;
  p.seed = 2026;
  p.npes = 4;
  p.nnodes = 4;  // socket-shaped: every PE its own node
  p.actions = 24;
  const transport::TransportFuzzResult a = transport::RunTransportFuzzCase(p);
  const transport::TransportFuzzResult b = transport::RunTransportFuzzCase(p);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
  EXPECT_NE(a.report.trace_hash, 0u);
  EXPECT_GT(a.wire_frames_sent, 0u);
}

TEST(TransportSim, SmpShapeIsAlsoDeterministic) {
  transport::TransportFuzzParams p;
  p.seed = 77;
  p.npes = 6;
  p.nnodes = 3;  // two PEs per node: SMP-node shape
  p.actions = 24;
  p.aggregate = true;  // frames as the wire unit
  const transport::TransportFuzzResult a = transport::RunTransportFuzzCase(p);
  const transport::TransportFuzzResult b = transport::RunTransportFuzzCase(p);
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
}

TEST(TransportFault, DisconnectedWireConservesMessages) {
  // Injected disconnects drop records; the conservation oracle inside
  // RunTransportFuzzCase (delivered == sent - dropped, payloads intact,
  // immediates reliable) must hold on every seed.
  for (unsigned long long seed : {11ull, 12ull, 13ull}) {
    transport::TransportFuzzParams p;
    p.seed = seed;
    p.npes = 6;
    p.nnodes = 3;
    p.actions = 24;
    p.disconnect_rate = 0.05;
    p.disconnect_lost = 3;
    const transport::TransportFuzzResult r = transport::RunTransportFuzzCase(p);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

TEST(TransportFault, PlantedLossIsDetected) {
  // Self-test of the oracle itself: silently stealing one record (no
  // dropped-counter credit) MUST trip the conservation check.  If this
  // ever passes cleanly the oracle has gone blind.
  transport::TransportFuzzParams p;
  p.seed = 5;
  p.npes = 6;
  p.nnodes = 3;
  p.actions = 32;
  p.plant_lost = true;
  const transport::TransportFuzzResult r = transport::RunTransportFuzzCase(p);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(TransportFault, MinimizerShrinksFailingCase) {
  transport::TransportFuzzParams p;
  p.seed = 5;
  p.npes = 6;
  p.nnodes = 3;
  p.actions = 32;
  p.plant_lost = true;
  const auto& w = transport::TransportFuzzWorkload();
  const transport::TransportFuzzParams small = w.Minimize(p, 24);
  // The planted loss reproduces at any scale, so the minimizer must be
  // able to shrink the workload while keeping the failure.
  EXPECT_LE(small.actions, p.actions);
  EXPECT_LE(small.npes, p.npes);
  const transport::TransportFuzzResult r =
      transport::RunTransportFuzzCase(small);
  EXPECT_FALSE(r.ok);
  // And the replay line names the tool invocation for humans.
  const std::string replay = w.FormatReplay(small);
  EXPECT_NE(replay.find("--transport"), std::string::npos);
  EXPECT_NE(replay.find("--plant-lost"), std::string::npos);
}

class TransportReplay : public ::testing::TestWithParam<double> {};

TEST_P(TransportReplay, ParseOfFormatReplayIsIdentity) {
  transport::TransportFuzzParams p;
  p.seed = 1234567890123ull;
  p.npes = 5;
  p.nnodes = 4;
  p.actions = 9;
  p.disconnect_rate = GetParam();
  p.disconnect_lost = 5;
  p.aggregate = true;
  p.plant_lost = true;
  const auto& w = transport::TransportFuzzWorkload();
  EXPECT_EQ(ctu::ParseReplay(w, w.FormatReplay(p)), p) << w.FormatReplay(p);
}

INSTANTIATE_TEST_SUITE_P(Doubles, TransportReplay, ctu::kReplayDoubles);

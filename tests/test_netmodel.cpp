// Network model tests: analytic properties of the per-machine latency
// models (Figures 4-8) and behaviour of a machine that applies them, which
// runs on the deterministic sim's virtual clock.
#include "test_helpers.h"

#include <cstring>
#include <ostream>
#include <vector>

using namespace converse;

TEST(NetModel, ZeroModelIsFree) {
  NetModel m;
  EXPECT_EQ(m.OnewayUs(0), 0.0);
  EXPECT_EQ(m.OnewayUs(1 << 20), 0.0);
}

namespace converse {
// Print a model by name: gtest's default byte dump would put the name
// pointer's address, which ASLR moves on every run, into the test names.
void PrintTo(const NetModel& m, std::ostream* os) { *os << m.name; }
}  // namespace converse

class NamedModels : public ::testing::TestWithParam<NetModel> {};

TEST_P(NamedModels, MonotoneNondecreasingInSize) {
  const NetModel m = GetParam();
  double prev = -1.0;
  for (std::size_t n = 0; n <= (1u << 18); n = n == 0 ? 1 : n * 2) {
    const double t = m.OnewayUs(n);
    EXPECT_GE(t, prev) << m.name << " at " << n;
    EXPECT_GT(t, 0.0);
    prev = t;
  }
}

TEST_P(NamedModels, LatencyDominatedBySizeEventually) {
  const NetModel m = GetParam();
  // Doubling a large message must nearly double its time (bandwidth bound).
  const double t1 = m.OnewayUs(1 << 20);
  const double t2 = m.OnewayUs(1 << 21);
  EXPECT_GT(t2 / t1, 1.6) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Machines, NamedModels,
                         ::testing::Values(netmodels::AtmHp(),
                                           netmodels::CrayT3D(),
                                           netmodels::MyrinetFm(),
                                           netmodels::IbmSp1(),
                                           netmodels::ParagonSunmos()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(NetModel, T3DHasPacketizationJumpAt16K) {
  // The paper: "The jump at 16K bytes is due to copying during
  // packetization."  The model must show a discontinuity there.
  const NetModel t3d = netmodels::CrayT3D();
  const double just_below = t3d.OnewayUs(16 * 1024);
  const double just_above = t3d.OnewayUs(16 * 1024 + 64);
  // The step must be far larger than 64 bytes' worth of bandwidth.
  const double smooth_delta = 64 * t3d.per_byte_us + t3d.per_packet_us;
  EXPECT_GT(just_above - just_below, 10 * smooth_delta);
}

TEST(NetModel, MyrinetMatchesPaperAnchor) {
  // Paper §5.1: FM delivers <=128-byte messages in ~25 us.
  const NetModel fm = netmodels::MyrinetFm();
  EXPECT_NEAR(fm.OnewayUs(128), 25.0, 8.0);
}

TEST(NetModel, RelativeMachineOrderingForShortMessages) {
  // Era ground truth: T3D fastest, then Paragon/Myrinet, then SP-1, with
  // the ATM workstation LAN slowest by an order of magnitude.
  const double t3d = netmodels::CrayT3D().OnewayUs(64);
  const double fm = netmodels::MyrinetFm().OnewayUs(64);
  const double paragon = netmodels::ParagonSunmos().OnewayUs(64);
  const double sp1 = netmodels::IbmSp1().OnewayUs(64);
  const double atm = netmodels::AtmHp().OnewayUs(64);
  EXPECT_LT(t3d, fm);
  EXPECT_LT(paragon, sp1);
  EXPECT_LT(fm, sp1);
  EXPECT_GT(atm, 4 * sp1);
}

// ---- Timed-delivery machine backend ------------------------------------------
//
// These tests run under the deterministic simulation backend (cfg.sim):
// modeled latency is virtual time, so the assertions are exact equalities
// on the virtual clock instead of wall-clock waits with tolerances, and
// the tests finish instantly regardless of the modeled delays.

TEST(NetSim, MessageIsDelayedByModeledLatency) {
  NetModel slow;
  slow.name = "test-slow";
  slow.alpha_us = 20000;  // 20 ms of (virtual) latency
  SimConfig sim;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &slow;
  cfg.sim = &sim;
  std::atomic<double> elapsed_us{0};
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      CsdExitScheduler();
    });
    if (pe == 0) {
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
      return;
    }
    const double t0 = CmiTimer();
    CsdScheduler(-1);
    elapsed_us = (CmiTimer() - t0) * 1e6;
  });
  // The virtual clock advances to exactly the modeled arrival time.
  EXPECT_DOUBLE_EQ(elapsed_us.load(), 20000.0);
}

TEST(NetSim, LargerMessagesArriveLater) {
  NetModel bw;
  bw.name = "test-bw";
  bw.alpha_us = 1000;
  bw.per_byte_us = 5.0;  // 5 us per byte: 4 KB ~ 21.5 ms (virtual)
  SimConfig sim;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &bw;
  cfg.sim = &sim;
  std::vector<int> arrival_order;
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void* msg) {
      arrival_order.push_back(static_cast<int>(CmiMsgPayloadSize(msg)));
      if (arrival_order.size() == 2) CsdExitScheduler();
    });
    if (pe == 0) {
      // Send the big one first; the small one must overtake it.
      void* big = CmiMakeMessage(h, nullptr, 0);
      void* big2 = CmiAlloc(CmiMsgHeaderSizeBytes() + 4096);
      CmiSetHandler(big2, h);
      CmiFree(big);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(big2), big2);
      void* small = CmiAlloc(CmiMsgHeaderSizeBytes() + 8);
      CmiSetHandler(small, h);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(small), small);
      return;
    }
    CsdScheduler(-1);
    EXPECT_EQ(arrival_order, (std::vector<int>{8, 4096}));
  });
}

TEST(NetSim, CollectivesWorkUnderLatency) {
  NetModel lag;
  lag.name = "test-lag";
  lag.alpha_us = 2000;
  SimConfig sim;
  MachineConfig cfg;
  cfg.npes = 3;
  cfg.model = &lag;
  cfg.sim = &sim;
  std::atomic<bool> ok{true};
  RunConverse(cfg, [&](int pe, int n) {
    const std::int64_t got = CmiAllReduceI64(pe, CmiReducerSumI64());
    if (got != n * (n - 1) / 2) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(NetSim, EqualArrivalTimesStayFifo) {
  NetModel fixed;
  fixed.name = "test-fifo";
  fixed.alpha_us = 500;
  SimConfig sim;
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &fixed;
  cfg.sim = &sim;
  std::vector<int> order;
  RunConverse(cfg, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      order.push_back(v);
      if (order.size() == 8) CsdExitScheduler();
    });
    if (pe == 0) {
      for (int i = 0; i < 8; ++i) {
        void* m = CmiMakeMessage(h, &i, sizeof(i));
        CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
      }
      return;
    }
    CsdScheduler(-1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  });
}

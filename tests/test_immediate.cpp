// Immediate (out-of-band) message tests — the paper's §6 "preemptive
// messages (interrupt messages)" future work, realized cooperatively.
#include "test_helpers.h"

#include <cstring>

using namespace converse;

TEST(Immediate, OvertakesEarlierRegularMessages) {
  std::vector<int> order;
  RunConverse(2, [&](int pe, int) {
    int rec = CmiRegisterHandler([&](void* msg) {
      int v;
      std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
      order.push_back(v);
      if (order.size() == 4) CsdExitScheduler();
    });
    if (pe == 0) {
      // Three regular messages, then one immediate: the immediate must be
      // delivered first even though it was sent last.
      for (int v : {1, 2, 3}) {
        void* m = CmiMakeMessage(rec, &v, sizeof(v));
        CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
      }
      const int urgent = 99;
      void* m = CmiMakeMessage(rec, &urgent, sizeof(urgent));
      CmiSyncSendImmediateAndFree(1, CmiMsgTotalSize(m), m);
      return;
    }
    // Give the sender time to enqueue everything before we start.
    volatile double x = 1;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
    CsdScheduler(-1);
    EXPECT_EQ(order, (std::vector<int>{99, 1, 2, 3}));
  });
}

TEST(Immediate, NotDelayedByNetworkModel) {
  // A machine with a model runs on the sim's virtual clock, so arrival
  // times are exact: the immediate skips the model, while the regular
  // message sent just before it pays the full 50 ms.
  NetModel slow;
  slow.name = "slow";
  slow.alpha_us = 50000;  // 50 ms for regular traffic
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &slow;
  std::atomic<double> imm_us{-1};
  std::atomic<double> reg_us{-1};
  RunConverse(cfg, [&](int pe, int) {
    int imm = CmiRegisterHandler([&](void*) { imm_us = CmiTimer() * 1e6; });
    int reg = CmiRegisterHandler([&](void*) {
      reg_us = CmiTimer() * 1e6;
      CsdExitScheduler();
    });
    if (pe == 0) {
      void* r = CmiMakeMessage(reg, nullptr, 0);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(r), r);
      void* m = CmiMakeMessage(imm, nullptr, 0);
      CmiSyncSendImmediateAndFree(1, CmiMsgTotalSize(m), m);
      return;
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(imm_us.load(), 0.0);
  EXPECT_DOUBLE_EQ(reg_us.load(), 50000.0);
}

TEST(Immediate, ProbeImmediatesFromLongRunningHandler) {
  // A long-running handler polls the immediate lane mid-computation; the
  // urgent message's handler runs inside the poll.
  std::vector<int> order;
  RunConverse(2, [&](int pe, int) {
    int urgent = CmiRegisterHandler([&](void*) { order.push_back(2); });
    int longrun = CmiRegisterHandler([&, urgent](void* msg) {
      order.push_back(1);
      // Wait until the urgent message has surely been sent, then poll.
      int polled = 0;
      const double t0 = CmiTimer();
      while (polled == 0 && CmiTimer() - t0 < 5.0) {
        polled = CmiProbeImmediates();
      }
      order.push_back(3);
      (void)msg;
      ConverseBroadcastExit();
    });
    if (pe == 0) {
      void* m = CmiMakeMessage(longrun, nullptr, 0);
      CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
      CmiFlush();  // must reach PE1 before the immediate overtakes it
      // Let PE1 enter the long handler, then interrupt it.
      volatile double x = 1;
      for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
      void* u = CmiMakeMessage(urgent, nullptr, 0);
      CmiSyncSendImmediateAndFree(1, CmiMsgTotalSize(u), u);
    }
    CsdScheduler(-1);
    if (pe == 1) {
      EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Immediate, WakesIdleScheduler) {
  std::atomic<bool> woke{false};
  RunConverse(2, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void*) {
      woke = true;
      CsdExitScheduler();
    });
    if (pe == 1) {
      volatile double x = 1;
      for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncSendImmediateAndFree(0, CmiMsgTotalSize(m), m);
      return;
    }
    CsdScheduler(-1);  // blocks idle; the immediate must wake it
  });
  EXPECT_TRUE(woke.load());
}

TEST(Immediate, CopyingVariantLeavesBufferUsable) {
  std::atomic<int> got{0};
  RunConverse(2, [&](int pe, int) {
    int h = CmiRegisterHandler([&](void* msg) {
      got = *static_cast<int*>(CmiMsgPayload(msg));
      ConverseBroadcastExit();
    });
    if (pe == 0) {
      int v = 5;
      void* m = CmiMakeMessage(h, &v, sizeof(v));
      CmiSyncSendImmediate(1, CmiMsgTotalSize(m), m);
      // The buffer is still ours: mutate and free it safely.
      *static_cast<int*>(CmiMsgPayload(m)) = -1;
      CmiFree(m);
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(got.load(), 5);
}

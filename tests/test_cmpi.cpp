// cmpi tests: the §3.1.3 claim that MPI-style retrieval (context + tag +
// source matching, pairwise FIFO ordering) can be built efficiently on the
// minimal machine interface.
#include "test_helpers.h"

#include <cstring>

#include "converse/langs/cmpi.h"

using namespace converse;
namespace M = converse::mpi;

TEST(Cmpi, RankAndSize) {
  RunConverse(3, [&](int pe, int) {
    EXPECT_EQ(M::CommRank(M::kCommWorld), pe);
    EXPECT_EQ(M::CommSize(M::kCommWorld), 3);
  });
}

TEST(Cmpi, BlockingSendRecvWithStatus) {
  std::atomic<bool> ok{false};
  RunConverse(2, [&](int pe, int) {
    if (pe == 0) {
      const double v = 3.5;
      M::Send(&v, sizeof(v), 1, 42, M::kCommWorld);
      return;
    }
    double v = 0;
    M::Status st;
    M::Recv(&v, sizeof(v), 0, 42, M::kCommWorld, &st);
    ok = v == 3.5 && st.source == 0 && st.tag == 42 &&
         st.count == sizeof(double);
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, PairwiseFifoOrderingGuarantee) {
  // "guarantees that messages are delivered in the sequence in which they
  // are sent between a pair of processors" — with identical tags.
  std::atomic<bool> ok{true};
  RunConverse(2, [&](int pe, int) {
    constexpr int kN = 200;
    if (pe == 0) {
      for (int i = 0; i < kN; ++i) {
        M::Send(&i, sizeof(i), 1, 1, M::kCommWorld);
      }
      return;
    }
    for (int i = 0; i < kN; ++i) {
      int v = -1;
      M::Recv(&v, sizeof(v), 0, 1, M::kCommWorld);
      if (v != i) ok = false;
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, FifoHoldsUnderReorderingNetwork) {
  // A NetModel machine (sim-backed, virtual time) physically reorders
  // different-size messages; cmpi's sequence numbers must restore sender
  // order.
  NetModel bw;
  bw.name = "reorder";
  bw.alpha_us = 100;
  bw.per_byte_us = 2.0;  // big messages arrive much later
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.model = &bw;
  std::atomic<bool> ok{true};
  RunConverse(cfg, [&](int pe, int) {
    if (pe == 0) {
      // Big first, then small: physically the small one overtakes.
      char big[2048];
      std::memset(big, 1, sizeof(big));
      M::Send(big, sizeof(big), 1, 7, M::kCommWorld);
      const char small = 2;
      M::Send(&small, 1, 1, 7, M::kCommWorld);
      return;
    }
    char first[2048] = {};
    M::Status st;
    M::Recv(first, sizeof(first), 0, 7, M::kCommWorld, &st);
    if (st.count != 2048 || first[0] != 1) ok = false;  // sender order!
    char second = 0;
    M::Recv(&second, 1, 0, 7, M::kCommWorld, &st);
    if (second != 2) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, WildcardsAndTagSelection) {
  std::atomic<bool> ok{false};
  RunConverse(3, [&](int pe, int) {
    if (pe == 1) {
      const int a = 10;
      M::Send(&a, sizeof(a), 0, 5, M::kCommWorld);
    } else if (pe == 2) {
      const int b = 20;
      M::Send(&b, sizeof(b), 0, 6, M::kCommWorld);
    } else {
      int v = 0;
      M::Status st;
      M::Recv(&v, sizeof(v), M::kAnySource, 6, M::kCommWorld, &st);
      const bool tag6 = v == 20 && st.source == 2;
      M::Recv(&v, sizeof(v), M::kAnySource, M::kAnyTag, M::kCommWorld, &st);
      ok = tag6 && v == 10 && st.tag == 5 && st.source == 1;
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, CommunicatorsSeparateTraffic) {
  // Same (source, tag) on two communicators must not cross.
  std::atomic<bool> ok{false};
  RunConverse(2, [&](int pe, int) {
    const M::Comm other = M::CommDup(M::kCommWorld);
    if (pe == 0) {
      const int w = 1, o = 2;
      M::Send(&o, sizeof(o), 1, 9, other);
      M::Send(&w, sizeof(w), 1, 9, M::kCommWorld);
      return;
    }
    int v = 0;
    M::Recv(&v, sizeof(v), 0, 9, M::kCommWorld);
    const bool world_got_world = v == 1;
    M::Recv(&v, sizeof(v), 0, 9, other);
    ok = world_got_world && v == 2;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, IRecvTestWait) {
  std::atomic<bool> ok{false};
  RunConverse(2, [&](int pe, int) {
    if (pe == 1) {
      // Wait for the ready signal, then send the data.
      char go;
      M::Recv(&go, 1, 0, 1, M::kCommWorld);
      const long v = 77;
      M::Send(&v, sizeof(v), 0, 2, M::kCommWorld);
      return;
    }
    long v = 0;
    M::Request* req = M::IRecv(&v, sizeof(v), 1, 2, M::kCommWorld);
    EXPECT_FALSE(M::Test(req));
    const char go = 1;
    M::Send(&go, 1, 1, 1, M::kCommWorld);
    M::Status st;
    M::Wait(req, &st);
    ok = v == 77 && st.count == sizeof(long);
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, IProbeSeesBuffered) {
  std::atomic<bool> ok{false};
  RunConverse(2, [&](int pe, int) {
    if (pe == 1) {
      const int a = 1;
      M::Send(&a, sizeof(a), 0, 3, M::kCommWorld);
      const int b = 2;
      M::Send(&b, sizeof(b), 0, 4, M::kCommWorld);
      return;
    }
    EXPECT_FALSE(M::IProbe(1, 3, M::kCommWorld));
    int v = 0;
    M::Recv(&v, sizeof(v), 1, 4, M::kCommWorld);  // buffers tag 3
    M::Status st;
    EXPECT_TRUE(M::IProbe(1, 3, M::kCommWorld, &st));
    EXPECT_EQ(st.count, static_cast<int>(sizeof(int)));
    EXPECT_EQ(M::UnexpectedCount(), 1u);
    M::Recv(&v, sizeof(v), 1, 3, M::kCommWorld);
    ok = v == 1;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, SendrecvExchange) {
  std::atomic<bool> ok{true};
  RunConverse(2, [&](int pe, int) {
    const int mine = pe * 100;
    int theirs = -1;
    M::Sendrecv(&mine, sizeof(mine), 1 - pe, 8, &theirs, sizeof(theirs),
                1 - pe, 8, M::kCommWorld);
    if (theirs != (1 - pe) * 100) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, RingAllPesSpmd) {
  constexpr int kNpes = 4;
  std::atomic<long> final{0};
  RunConverse(kNpes, [&](int pe, int np) {
    long token = 0;
    if (pe == 0) {
      token = 1;
      M::Send(&token, sizeof(token), 1, 0, M::kCommWorld);
      M::Recv(&token, sizeof(token), np - 1, 0, M::kCommWorld);
      final = token;
    } else {
      M::Recv(&token, sizeof(token), pe - 1, 0, M::kCommWorld);
      token *= 2;
      M::Send(&token, sizeof(token), (pe + 1) % np, 0, M::kCommWorld);
    }
  });
  EXPECT_EQ(final.load(), 8);  // 1 * 2^3
}

TEST(Cmpi, CollectivesVeneer) {
  std::atomic<bool> ok{true};
  RunConverse(3, [&](int pe, int np) {
    M::Barrier(M::kCommWorld);
    double v[2] = {static_cast<double>(pe), 1.0};
    if (pe != 0) v[0] = pe;
    // Bcast from rank 1.
    double b = pe == 1 ? 6.25 : 0.0;
    M::Bcast(&b, sizeof(b), 1, M::kCommWorld);
    if (b != 6.25) ok = false;
    double out[2];
    M::AllreduceF64(v, out, 2, M::Op::kSum, M::kCommWorld);
    if (out[0] != np * (np - 1) / 2.0 || out[1] != np) ok = false;
    std::int64_t mx = pe;
    std::int64_t mxo = 0;
    M::AllreduceI64(&mx, &mxo, 1, M::Op::kMax, M::kCommWorld);
    if (mxo != np - 1) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Cmpi, ThreadedRecvSuspendsThread) {
  std::atomic<long> got{0};
  RunConverse(2, [&](int pe, int) {
    if (pe == 0) {
      CthAwaken(CthCreate([&] {
        long v = 0;
        M::Recv(&v, sizeof(v), 1, 11, M::kCommWorld);
        got = v;
        ConverseBroadcastExit();
      }));
      CsdScheduler(-1);
    } else {
      volatile double x = 1;
      for (int i = 0; i < 500000; ++i) x = x * 1.0000001;
      const long v = 1111;
      M::Send(&v, sizeof(v), 0, 11, M::kCommWorld);
      CsdScheduler(-1);
    }
  });
  EXPECT_EQ(got.load(), 1111);
}

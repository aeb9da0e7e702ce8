// Randomized multi-paradigm stress tests: several runtimes active at once
// on one machine, with seeds controlling the interleavings.  Invariants:
// nothing deadlocks, every message is accounted for, payloads arrive
// intact.
#include "test_helpers.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "converse/futures.h"
#include "converse/langs/charm.h"
#include "converse/langs/cmpi.h"
#include "converse/langs/sm.h"
#include "converse/langs/tsm.h"
#include "converse/util/crc.h"
#include "converse/util/rng.h"
#include "core/pe_state.h"

using namespace converse;

class StressSeed : public ::testing::TestWithParam<unsigned> {};

TEST_P(StressSeed, MixedParadigmTrafficAllAccounted) {
  constexpr int kNpes = 4;
  constexpr int kOpsPerPe = 150;
  std::atomic<long> raw_received{0}, sm_received{0}, chare_invoked{0},
      thread_done{0};
  std::atomic<long> raw_sent{0}, sm_sent{0}, chare_sent{0},
      thread_spawned{0};
  std::atomic<int> senders_done{0};

  RunConverse(kNpes, [&](int pe, int np) {
    CldSetStrategy(CldStrategy::kRandom);

    // --- paradigm 1: raw handlers with CRC'd payloads ---
    int raw = CmiRegisterHandler([&](void* msg) {
      const auto n = CmiMsgPayloadSize(msg) - 4;
      const char* d = static_cast<const char*>(CmiMsgPayload(msg));
      std::uint32_t want;
      std::memcpy(&want, d + n, 4);
      ASSERT_EQ(util::Crc32c(d, n), want);
      ++raw_received;
    });

    // --- paradigm 2: charm chares created via seeds ---
    struct Sink : charm::Chare {
      Sink(const void*, std::size_t) {}
    };
    // Atomic: every PE thread stores the (identical) pointer concurrently.
    static std::atomic<std::atomic<long>*> chare_counter;
    chare_counter.store(&chare_invoked);
    const int sink_type =
        charm::RegisterChare("sink", [](const void*, std::size_t) -> charm::Chare* {
          chare_counter.load()->fetch_add(1);
          return new Sink(nullptr, 0);
        });

    // --- driver: every PE mixes operations, seeded ---
    util::Xoshiro256 rng(GetParam() * 1000 + static_cast<unsigned>(pe));
    for (int op = 0; op < kOpsPerPe; ++op) {
      switch (rng.Below(4)) {
        case 0: {  // raw message with checksum
          const std::size_t n = rng.Below(512) + 1;
          void* m = CmiAlloc(CmiMsgHeaderSizeBytes() + n + 4);
          CmiSetHandler(m, raw);
          auto* d = static_cast<char*>(CmiMsgPayload(m));
          for (std::size_t j = 0; j < n; ++j) {
            d[j] = static_cast<char>(rng.Next());
          }
          const std::uint32_t crc = util::Crc32c(d, n);
          std::memcpy(d + n, &crc, 4);
          ++raw_sent;
          CmiSyncSendAndFree(
              static_cast<unsigned>(rng.Below(static_cast<std::uint64_t>(np))),
              CmiMsgTotalSize(m), m);
          break;
        }
        case 1: {  // SM tagged message to a thread on a random PE
          const long v = static_cast<long>(rng.Next());
          ++sm_sent;
          sm::SmSend(static_cast<int>(rng.Below(static_cast<std::uint64_t>(np))),
                     500, &v, sizeof(v));
          break;
        }
        case 2: {  // chare seed
          ++chare_sent;
          charm::CreateChare(sink_type, nullptr, 0);
          break;
        }
        case 3: {  // local thread that yields a few times
          ++thread_spawned;
          tsm::tSMCreate([&, yields = rng.Below(4)] {
            for (std::uint64_t y = 0; y < yields; ++y) CthYield();
            ++thread_done;
          });
          break;
        }
      }
      // Occasionally let the scheduler breathe mid-burst.
      if (op % 32 == 31) CsdSchedulePoll(8);
    }

    // One consumer thread per PE drains SM traffic forever (until exit).
    tsm::tSMCreate([&] {
      for (;;) {
        long v = 0;
        sm::SmRecv(&v, sizeof(v), 500);
        ++sm_received;
      }
    });

    // Completion: when every PE finished its send loop AND quiescence of
    // the charm layer is reached AND counts match, PE0 ends the run.
    // `poll` must outlive the whole scheduling phase (the QD callback
    // keeps a reference to it for re-arming), so it lives at entry scope.
    ++senders_done;
    std::function<void()> poll;
    if (pe == 0) {
      poll = [&]() {
        const bool all_sent = senders_done.load() == np;
        const bool raw_ok = raw_received.load() == raw_sent.load();
        const bool sm_ok = sm_received.load() == sm_sent.load();
        const bool chare_ok = chare_invoked.load() == chare_sent.load();
        const bool thr_ok = thread_done.load() == thread_spawned.load();
        if (all_sent && raw_ok && sm_ok && chare_ok && thr_ok) {
          ConverseBroadcastExit();
          return;
        }
        charm::StartQuiescence(poll);  // re-arm: QD fires when traffic drains
      };
      charm::StartQuiescence(poll);
    }
    CsdScheduler(-1);
  });

  EXPECT_EQ(raw_received.load(), raw_sent.load());
  EXPECT_EQ(sm_received.load(), sm_sent.load());
  EXPECT_EQ(chare_invoked.load(), chare_sent.load());
  EXPECT_EQ(thread_done.load(), thread_spawned.load());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeed,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Stress, TinyRingWrapsAndSpillsKeepPerSenderFifo) {
  // ring_capacity 4 forces constant wraparound and overflow spills on the
  // lock-free delivery lanes; the per-sender FIFO contract must survive
  // both paths (a message spilled to the overflow deque must never be
  // passed by a later message from the same sender going via the ring).
  constexpr int kNpes = 5;
  constexpr int kPerSender = 400;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.ring_capacity = 4;
  std::atomic<long> received{0};
  std::atomic<bool> fifo_ok{true};
  RunConverse(cfg, [&](int pe, int np) {
    struct Wire {
      std::int32_t sender;
      std::int32_t seq;
    };
    std::vector<int> last_seq(static_cast<std::size_t>(np), -1);
    int h = CmiRegisterHandler([&](void* msg) {
      Wire w;
      std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
      if (w.seq != last_seq[w.sender] + 1) fifo_ok = false;
      last_seq[w.sender] = w.seq;
      if (++received == static_cast<long>(np - 1) * kPerSender) {
        ConverseBroadcastExit();
      }
    });
    if (pe != 0) {
      for (int i = 0; i < kPerSender; ++i) {
        Wire w{pe, i};
        void* m = CmiMakeMessage(h, &w, sizeof(w));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_TRUE(fifo_ok.load());
  EXPECT_EQ(received.load(), static_cast<long>(kNpes - 1) * kPerSender);
}

TEST(Stress, RemoteFreeReturnRingsUnderEightPeAllToAll) {
  // All-to-all traffic on 8 PEs: every message is allocated from the
  // sender's pool and freed on the receiver's thread, exercising the
  // cross-thread return rings.  The memory-stats deltas must show the
  // remote frees (when the pool is enabled) and the run must account for
  // every message.
  const CmiMemoryStats before = CmiGetMemoryStats();
  constexpr int kNpes = 8;
  constexpr int kPerDest = 120;
  constexpr long kTotal =
      static_cast<long>(kNpes) * (kNpes - 1) * kPerDest;
  std::atomic<long> received{0};
  std::atomic<bool> aggregated{false};
  RunConverse(kNpes, [&](int pe, int np) {
    if (pe == 0) aggregated = CmiAggActive();
    int h = CmiRegisterHandler([&](void*) {
      if (++received == kTotal) ConverseBroadcastExit();
    });
    for (int dest = 0; dest < np; ++dest) {
      if (dest == pe) continue;
      for (int i = 0; i < kPerDest; ++i) {
        void* m = CmiMakeMessage(h, &i, sizeof(i));
        CmiSyncSendAndFree(static_cast<unsigned>(dest), CmiMsgTotalSize(m),
                           m);
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(received.load(), kTotal);
  const CmiMemoryStats after = CmiGetMemoryStats();
  if (!after.pool_enabled) GTEST_SKIP() << "message pool disabled";
  if (aggregated.load()) {
    // Aggregated runs materialize (and free) the small messages on the
    // receiver; only frame buffers cross threads, so the per-message
    // remote-free invariant does not apply.
    GTEST_SKIP() << "aggregation on: inners are receiver-local";
  }
  // Every cross-PE message was freed on a thread that does not own it.
  EXPECT_GE(after.remote_frees - before.remote_frees,
            static_cast<std::uint64_t>(kTotal));
}

TEST(Stress, PoolReusesFreedBlocks) {
  // Local alloc/free cycles of one size class must hit the freelist on
  // every iteration after the first (observable reuse, not just counters
  // standing still).
  const CmiMemoryStats before = CmiGetMemoryStats();
  RunConverse(1, [&](int, int) {
    const std::size_t bytes = CmiMsgHeaderSizeBytes() + 64;
    for (int i = 0; i < 64; ++i) {
      void* m = CmiAlloc(bytes);
      CmiFree(m);
    }
  });
  const CmiMemoryStats after = CmiGetMemoryStats();
  if (!after.pool_enabled) GTEST_SKIP() << "message pool disabled";
  EXPECT_GE(after.pool_hits - before.pool_hits, 63u);
  EXPECT_GT(after.local_frees, before.local_frees);
}

TEST(Stress, ManySequentialMachines) {
  // Machine setup/teardown hygiene: leaks or stale state would accumulate.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    RunConverse(1 + round % 3, [&](int, int) {
      int h = CmiRegisterHandler([&](void*) {
        ++count;
        CsdExitScheduler();
      });
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncSendAndFree(static_cast<unsigned>(CmiMyPe()),
                         CmiMsgTotalSize(m), m);
      CsdScheduler(-1);
    });
    EXPECT_EQ(count.load(), 1 + round % 3);
  }
}

TEST(Stress, CthParkAwakenHundredThousandCycles) {
  // Session-scale thread churn (the service runtime's worker discipline,
  // magnified): 32 threads per PE on 4 PEs each park and get awakened 800
  // times — 102,400 suspend/awaken cycles — driven by wake tokens that
  // circulate across the PEs.  Every cycle must be accounted for and the
  // run must terminate cleanly; TSan / CONVERSE_RACE builds additionally
  // check the park/awaken handoffs are race-free.
  constexpr int kNpes = 4;
  constexpr int kThreads = 32;
  constexpr int kCycles = 800;
  std::atomic<long> total_cycles{0};
  std::atomic<int> pes_done{0};
  std::atomic<int> tokens_swallowed{0};
  RunConverse(kNpes, [&](int pe, int np) {
    struct Slot {
      CthThread* t = nullptr;
      bool parked = false;
    };
    // Per-PE state, touched only from this PE's thread (handlers and Cth
    // threads of one PE run cooperatively), so no locks needed.
    std::vector<Slot> slots(kThreads);
    int exited = 0;
    int h = -1;
    h = CmiRegisterHandler([&](void*) {
      // A wake token: awaken every parked thread here, then pass the token
      // on.  Once every PE's threads finished, each of the np circulating
      // tokens is swallowed exactly once; the last one ends the run.
      for (Slot& s : slots) {
        if (s.parked) {
          s.parked = false;
          CthAwaken(s.t);
        }
      }
      if (pes_done.load() == np) {
        if (++tokens_swallowed == np) ConverseBroadcastExit();
        return;
      }
      void* m = CmiMakeMessage(h, nullptr, 0);
      CmiSyncSendAndFree(static_cast<unsigned>((pe + 1) % np),
                         CmiMsgTotalSize(m), m);
    });
    for (int i = 0; i < kThreads; ++i) {
      slots[i].t = CthCreate([&, i] {
        Slot& self = slots[i];
        for (int c = 0; c < kCycles; ++c) {
          // No yield point between setting parked and suspending, so the
          // token handler can never observe a half-parked thread.
          self.parked = true;
          CthSuspend();
          ++total_cycles;
        }
        if (++exited == kThreads) ++pes_done;
      });
      CthAwaken(slots[i].t);  // run to the first park
    }
    // Each PE launches one token; np tokens circulate concurrently.
    void* m = CmiMakeMessage(h, nullptr, 0);
    CmiSyncSendAndFree(static_cast<unsigned>((pe + 1) % np),
                       CmiMsgTotalSize(m), m);
    CsdScheduler(-1);
  });
  EXPECT_EQ(total_cycles.load(),
            static_cast<long>(kNpes) * kThreads * kCycles);
  EXPECT_EQ(pes_done.load(), kNpes);
  EXPECT_EQ(tokens_swallowed.load(), kNpes);
}

TEST(Stress, FuturesFanOutFanInUnderLoad) {
  constexpr int kWaves = 10;
  constexpr int kPerWave = 16;
  std::atomic<long> total{0};
  RunConverse(3, [&](int pe, int np) {
    struct Wire {
      Cfuture f;
      long v;
    };
    int worker = CmiRegisterHandler([](void* msg) {
      Wire w;
      std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
      CfutureSetValue<long>(w.f, w.v + 1);
    });
    if (pe == 0) {
      long acc = 0;
      for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<Cfuture> fs;
        for (int i = 0; i < kPerWave; ++i) {
          Cfuture f = CfutureCreate();
          fs.push_back(f);
          Wire w{f, wave * kPerWave + i};
          void* m = CmiMakeMessage(worker, &w, sizeof(w));
          CmiSyncSendAndFree(
              static_cast<unsigned>(1 + (i % (np - 1))),
              CmiMsgTotalSize(m), m);
        }
        for (Cfuture f : fs) {
          acc += CfutureWaitValue<long>(f);
          CfutureDestroy(f);
        }
      }
      total = acc;
      ConverseBroadcastExit();
    }
    CsdScheduler(-1);
  });
  const long n = kWaves * kPerWave;
  EXPECT_EQ(total.load(), n * (n - 1) / 2 + n);
}

// ---- per-producer data lanes ------------------------------------------------
//
// Every (producer, consumer) pair gets its own SPSC ring, created on the
// pair's first send.  These tests look into the lane tables and caches
// (core/pe_state.h) to prove which lanes spilled and how many exist.

namespace {

/// Messages spilled to the overflow deque of PE `producer`'s data lane
/// into the calling PE and not yet spliced back; 0 when that pair has not
/// talked yet.  The producer filled its lane cache before its first push,
/// and the calling PE saw that push (or a flag set after it), so the read
/// is ordered after the write.
std::uint64_t LaneSpilled(int producer) {
  const detail::PeState& me = *detail::Cpv();
  const detail::DataLane* lane =
      me.machine->Pe(producer).out_lanes[static_cast<std::size_t>(me.mype)];
  return lane == nullptr ? 0 : lane->ovf.overflow_count.load();
}

/// Sanitizer builds run the long loops at a fraction of their size.
long SanitizerDivisor() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return 10;
#else
  return 1;
#endif
#else
  return 1;
#endif
}

/// Aborts the process when `progress` stops moving for `stall`.  A lost
/// wakeup leaves every PE blocked forever; this turns that hang into a
/// named failure instead of a ctest timeout.
class Watchdog {
 public:
  Watchdog(const std::atomic<long>& progress, const char* what,
           std::chrono::seconds stall)
      : thread_([this, &progress, what, stall] {
          std::unique_lock lk(mu_);
          long seen = progress.load();
          auto last_move = std::chrono::steady_clock::now();
          while (!cv_.wait_for(lk, std::chrono::milliseconds(100),
                               [this] { return done_; })) {
            const long now = progress.load();
            if (now != seen) {
              seen = now;
              last_move = std::chrono::steady_clock::now();
            } else if (std::chrono::steady_clock::now() - last_move > stall) {
              std::fprintf(stderr,
                           "watchdog: %s made no progress for %llds at %ld; "
                           "a wakeup was lost\n",
                           what, static_cast<long long>(stall.count()), now);
              std::abort();
            }
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::scoped_lock lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it reads
};

struct LaneWire {
  std::int32_t sender;
  std::int32_t seq;
};

}  // namespace

TEST(StressLanes, OneProducerSpillsWhileSixStayOnTheirRings) {
  // Seven producers into PE 0 over 4-slot lanes.  PE 0 does not consume
  // until producer 1 has pushed a whole burst (and the others their first
  // window), so producer 1's lane must spill into its sticky overflow;
  // producers 2..7 send windows of 4 that PE 0 acks, so their lanes never
  // fill.  Producer 1 sends a second burst
  // while PE 0 drains, crossing ring -> overflow -> ring repeatedly.
  // Per-sender FIFO and the exact delivered count must hold throughout.
  constexpr int kNpes = 8;
  constexpr int kRing = 4;
  constexpr int kBurst = 2000;
  constexpr int kWindows = 150;
  constexpr long kTotal = 2L * kBurst + (kNpes - 2L) * kWindows * kRing;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.ring_capacity = kRing;
  cfg.aggregate_sends = 0;
  std::atomic<bool> burst_pushed{false};
  std::atomic<bool> burst_counted{false};
  std::atomic<int> windows_started{0};
  std::atomic<long> received{0};
  std::atomic<bool> fifo_ok{true};
  std::atomic<bool> windowed_spilled{false};
  std::atomic<std::uint64_t> burst_spilled{0};
  std::atomic<int> others_spilled{-1};
  std::vector<int> last(kNpes, -1);  // PE 0's handler only
  RunConverse(cfg, [&](int pe, int) {
    int data = -1;
    int next_seq = 0;
    const auto send_data = [&](int n) {
      for (int i = 0; i < n; ++i) {
        LaneWire w{pe, next_seq++};
        void* m = CmiMakeMessage(data, &w, sizeof(w));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
    };
    const int ack = CmiRegisterHandler([&](void*) { send_data(kRing); });
    data = CmiRegisterHandler([&](void* msg) {
      LaneWire w;
      std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
      if (w.seq != last[w.sender] + 1) fifo_ok = false;
      last[w.sender] = w.seq;
      if (w.sender >= 2) {
        if (LaneSpilled(w.sender) != 0) windowed_spilled = true;
        if ((w.seq + 1) % kRing == 0 && w.seq + 1 < kWindows * kRing) {
          void* m = CmiMakeMessage(ack, nullptr, 0);
          CmiSyncSendAndFree(static_cast<unsigned>(w.sender),
                             CmiMsgTotalSize(m), m);
        }
      }
      if (++received == kTotal) ConverseBroadcastExit();
    });
    if (pe == 0) {
      while (!burst_pushed.load() || windows_started.load() < kNpes - 2) {
        std::this_thread::yield();
      }
      burst_spilled = LaneSpilled(1);
      int others = 0;
      for (int s = 2; s < kNpes; ++s) others += LaneSpilled(s) != 0 ? 1 : 0;
      others_spilled = others;
      burst_counted = true;
    } else if (pe == 1) {
      send_data(kBurst);
      burst_pushed = true;
      while (!burst_counted.load()) std::this_thread::yield();
      send_data(kBurst);
    } else {
      send_data(kRing);
      ++windows_started;
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(burst_spilled.load(), static_cast<std::uint64_t>(kBurst - kRing));
  EXPECT_EQ(others_spilled.load(), 0);
  EXPECT_FALSE(windowed_spilled.load());
  EXPECT_TRUE(fifo_ok.load());
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(last[1], 2 * kBurst - 1);
  for (int s = 2; s < kNpes; ++s) EXPECT_EQ(last[s], kWindows * kRing - 1);
}

TEST(StressLanes, SpillStormKeepsPerSenderFifoOnBothLanes) {
  // Seven producers flood PE 0 over 4-slot rings, once through the data
  // lanes and once through the shared immediate lane.  A sender can refill
  // a ring after the consumer last found it empty and then spill again;
  // the consumer must deliver what reached the ring before the overflow
  // it splices.  On the shared immediate ring this happens within a few
  // machines whenever the ring is not drained before the splice.
  constexpr int kNpes = 8;
  constexpr int kPerSender = 20000;
  const long kMachines = 10 / SanitizerDivisor() + 1;
  for (const bool immediate : {false, true}) {
    for (long round = 0; round < kMachines; ++round) {
      MachineConfig cfg;
      cfg.npes = kNpes;
      cfg.ring_capacity = 4;
      cfg.aggregate_sends = 0;
      std::atomic<long> received{0};
      std::atomic<long> out_of_order{0};
      std::vector<int> last(kNpes, -1);  // PE 0's handler only
      RunConverse(cfg, [&](int pe, int np) {
        const int h = CmiRegisterHandler([&](void* msg) {
          LaneWire w;
          std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
          if (w.seq != last[w.sender] + 1) ++out_of_order;
          last[w.sender] = w.seq;
          if (++received == static_cast<long>(np - 1) * kPerSender) {
            ConverseBroadcastExit();
          }
        });
        if (pe != 0) {
          for (int i = 0; i < kPerSender; ++i) {
            LaneWire w{pe, i};
            void* m = CmiMakeMessage(h, &w, sizeof(w));
            if (immediate) {
              CmiSyncSendImmediateAndFree(0, CmiMsgTotalSize(m), m);
            } else {
              CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
            }
          }
        }
        CsdScheduler(-1);
      });
      ASSERT_EQ(out_of_order.load(), 0)
          << (immediate ? "immediate" : "data") << " lanes, machine " << round;
      ASSERT_EQ(received.load(), (kNpes - 1L) * kPerSender);
    }
  }
}

TEST(StressLanes, SimultaneousFirstSendsRaceLaneCreation) {
  // Every PE, PE 0 included, makes its first send to PE 0 at the same
  // instant, so the lazy lane registrations race under PE 0's mutex.  Each
  // other producer must end up with exactly one lane, and every message must
  // arrive once and in its sender's order.
  constexpr int kNpes = 8;
  constexpr int kPerSender = 64;
  const long kMachines = 200 / SanitizerDivisor();
  for (long round = 0; round < kMachines; ++round) {
    MachineConfig cfg;
    cfg.npes = kNpes;
    cfg.ring_capacity = 16;  // small enough that some first bursts spill
    cfg.aggregate_sends = 0;
    std::atomic<int> arrived{0};
    std::atomic<long> received{0};
    std::atomic<bool> fifo_ok{true};
    std::atomic<int> lanes{-1};
    std::vector<int> last(kNpes, -1);  // PE 0's handler only
    RunConverse(cfg, [&](int pe, int np) {
      const int h = CmiRegisterHandler([&](void* msg) {
        LaneWire w;
        std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
        if (w.seq != last[w.sender] + 1) fifo_ok = false;
        last[w.sender] = w.seq;
        if (++received == static_cast<long>(np) * kPerSender) {
          lanes = detail::Cpv()->nlanes.load();
          ConverseBroadcastExit();
        }
      });
      // Spin without yielding so the PEs leave the barrier together.
      ++arrived;
      while (arrived.load() < np) {
      }
      for (int i = 0; i < kPerSender; ++i) {
        LaneWire w{pe, i};
        void* m = CmiMakeMessage(h, &w, sizeof(w));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
      CsdScheduler(-1);
    });
    ASSERT_TRUE(fifo_ok.load()) << "machine " << round;
    ASSERT_EQ(received.load(), static_cast<long>(kNpes) * kPerSender)
        << "machine " << round;
    // One lane per peer: PE 0's own sends take no lane.
    ASSERT_EQ(lanes.load(), kNpes - 1) << "machine " << round;
  }
}

TEST(StressLanes, BurstServiceDrainsOneLaneAtATime) {
  // PEs 1..3 each fill their lane into PE 0 with exactly one ring's worth,
  // and PE 0 starts consuming only once all three rings are full (none
  // spilled).  The consumer serves a lane for up to a ring's worth before
  // moving to the next, so each sender's messages must arrive as one
  // contiguous run, in send order.
  constexpr int kNpes = 4;
  constexpr int kRing = 64;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.ring_capacity = kRing;
  cfg.aggregate_sends = 0;
  std::atomic<int> filled{0};
  std::atomic<int> spilled{-1};
  std::vector<LaneWire> order;  // PE 0's handler only
  RunConverse(cfg, [&](int pe, int np) {
    const int h = CmiRegisterHandler([&](void* msg) {
      LaneWire w;
      std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
      order.push_back(w);
      if (order.size() == static_cast<std::size_t>(np - 1) * kRing) {
        ConverseBroadcastExit();
      }
    });
    if (pe != 0) {
      for (int i = 0; i < kRing; ++i) {
        LaneWire w{pe, i};
        void* m = CmiMakeMessage(h, &w, sizeof(w));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
      ++filled;
    } else {
      while (filled.load() < np - 1) std::this_thread::yield();
      int n = 0;
      for (int s = 1; s < np; ++s) n += LaneSpilled(s) != 0 ? 1 : 0;
      spilled = n;
    }
    CsdScheduler(-1);
  });
  ASSERT_EQ(spilled.load(), 0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kNpes - 1) * kRing);
  int runs = 0;
  int fifo_breaks = 0;
  std::vector<int> last(kNpes, -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const LaneWire& w = order[k];
    if (k == 0 || w.sender != order[k - 1].sender) ++runs;
    if (w.seq != last[w.sender] + 1) ++fifo_breaks;
    last[w.sender] = w.seq;
  }
  EXPECT_EQ(runs, kNpes - 1) << "senders interleaved";
  EXPECT_EQ(fifo_breaks, 0);
}

TEST(StressLanes, SelfSendsUseNoLaneAndKeepFifo) {
  // PE 3 only ever sends to itself; PE 0 sends to itself while PEs 1 and
  // 2 fill their lanes into it.  Self-sends skip the data lanes, so PE 3
  // registers none and PE 0 one per peer, yet each stream, the self
  // streams included, arrives whole and in send order.  PE 0 starts only
  // once both peers have sent, and its small ring hands the turn between
  // the lanes and its self queue, so its self-sends arrive in more than
  // one run.
  constexpr int kNpes = 4;
  constexpr int kPerSender = 64;
  MachineConfig cfg;
  cfg.npes = kNpes;
  cfg.ring_capacity = 16;
  cfg.aggregate_sends = 0;
  std::atomic<int> filled{0};
  std::atomic<int> done{0};
  std::atomic<int> lanes0{-1};
  std::atomic<int> lanes3{-1};
  std::vector<LaneWire> order0, order3;  // each touched by one PE only
  RunConverse(cfg, [&](int pe, int) {
    const int h = CmiRegisterHandler([&](void* msg) {
      LaneWire w;
      std::memcpy(&w, CmiMsgPayload(msg), sizeof(w));
      const bool at0 = CmiMyPe() == 0;
      std::vector<LaneWire>& order = at0 ? order0 : order3;
      order.push_back(w);
      if (order.size() ==
          static_cast<std::size_t>(at0 ? 3 * kPerSender : kPerSender)) {
        (at0 ? lanes0 : lanes3) = detail::Cpv()->nlanes.load();
        if (++done == 2) ConverseBroadcastExit();
      }
    });
    auto send_all = [&, pe](int dest) {
      for (int i = 0; i < kPerSender; ++i) {
        LaneWire w{pe, i};
        void* m = CmiMakeMessage(h, &w, sizeof(w));
        CmiSyncSendAndFree(dest, CmiMsgTotalSize(m), m);
      }
    };
    if (pe == 1 || pe == 2) {
      send_all(0);
      ++filled;
    } else {
      send_all(pe);
      if (pe == 0) {
        while (filled.load() < 2) std::this_thread::yield();
      }
    }
    CsdScheduler(-1);
  });
  EXPECT_EQ(lanes0.load(), 2);
  EXPECT_EQ(lanes3.load(), 0);
  ASSERT_EQ(order0.size(), 3u * kPerSender);
  ASSERT_EQ(order3.size(), static_cast<std::size_t>(kPerSender));
  int fifo_breaks = 0;
  int self_runs = 0;
  std::vector<int> last(kNpes, -1);
  for (const std::vector<LaneWire>* order : {&order0, &order3}) {
    for (std::size_t k = 0; k < order->size(); ++k) {
      const LaneWire& w = (*order)[k];
      if (w.seq != last[w.sender] + 1) ++fifo_breaks;
      last[w.sender] = w.seq;
      if (order == &order0 && w.sender == 0 &&
          (k == 0 || (*order)[k - 1].sender != 0)) {
        ++self_runs;
      }
    }
  }
  EXPECT_EQ(fifo_breaks, 0);
  EXPECT_GE(self_runs, 2) << "self-sends never shared the turn with lanes";
}

TEST(StressLanes, TimedMachinesAllocateNoDataLanes) {
  // Sim-backed machines deliver regular traffic through the timed queue,
  // so all-to-all traffic there must neither allocate nor register a data
  // lane; the same traffic on a plain machine registers one lane per
  // other sender at every PE.  A machine with only a NetModel is sim-backed too:
  // its clock is virtual, so every remote message lands exactly alpha_us
  // after its send at virtual 0 and every self-send at 0.
  constexpr int kNpes = 3;
  NetModel model;
  model.alpha_us = 5.0;
  SimConfig sim;
  MachineConfig timed[2];
  timed[0].model = &model;
  timed[1].sim = &sim;
  MachineConfig plain;
  for (MachineConfig* cfg : {&timed[0], &timed[1], &plain}) {
    cfg->npes = kNpes;
    cfg->aggregate_sends = 0;
    std::atomic<long> delivered{0};
    std::atomic<int> lane_tables{0};
    std::atomic<int> lanes{0};
    std::atomic<int> sim_backed{0};
    std::atomic<int> off_clock{0};
    RunConverse(*cfg, [&](int pe, int np) {
      const int h = CmiRegisterHandler([&](void* msg) {
        int src;
        std::memcpy(&src, CmiMsgPayload(msg), sizeof(src));
        const double want_s = src == CmiMyPe() ? 0.0 : model.alpha_us * 1e-6;
        if (cfg == &timed[0] && CmiTimer() != want_s) ++off_clock;
        if (++delivered == static_cast<long>(np) * np) {
          ConverseBroadcastExit();
        }
      });
      for (int d = 0; d < np; ++d) {
        void* m = CmiMakeMessage(h, &pe, sizeof(pe));
        CmiSyncSendAndFree(static_cast<unsigned>(d), CmiMsgTotalSize(m), m);
      }
      CsdScheduler(-1);
      const detail::PeState& me = *detail::Cpv();
      if (me.lanes != nullptr || me.out_lanes != nullptr) ++lane_tables;
      lanes += me.nlanes.load();
      if (me.machine->sim() != nullptr) ++sim_backed;
    });
    EXPECT_EQ(delivered.load(), static_cast<long>(kNpes) * kNpes);
    EXPECT_EQ(sim_backed.load(), cfg == &plain ? 0 : kNpes);
    EXPECT_EQ(off_clock.load(), 0);
    if (cfg == &plain) {
      EXPECT_EQ(lane_tables.load(), kNpes);
      EXPECT_EQ(lanes.load(), kNpes * (kNpes - 1));  // none for self
    } else {
      EXPECT_EQ(lane_tables.load(), 0);
      EXPECT_EQ(lanes.load(), 0);
    }
  }
}

namespace {

/// Waits (bounded) until PE `pe` has announced it is parking in
/// WaitForNet; true when it did.
bool AwaitParked(int pe) {
  const std::atomic<bool>& parked = detail::Cpv()->machine->Pe(pe).parked;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!parked.load()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

/// `round_trips` single-message round trips from PE 0, each to the next
/// peer in turn, with idle_spin_us = 0 so every PE blocks the moment it
/// runs dry.  On even round trips a peer answers only once PE 0 has set
/// its `parked` flag, so the pong lands in PE 0's window between that
/// store and its sleep, or on a sleeping PE 0; it also times how long PE 0
/// takes to park.  On odd round trips the peer answers after a random
/// delay of up to 1.25x that time, so publishes straddle the moment PE 0
/// parks, where a broken Dekker pair loses the wakeup.  Returns the pongs
/// that saw PE 0 parked.
long WakeStorm(int npes, long round_trips) {
  MachineConfig cfg;
  cfg.npes = npes;
  cfg.idle_spin_us = 0.0;
  cfg.aggregate_sends = 0;
  std::atomic<long> done{0};
  std::atomic<long> parked_pongs{0};
  std::atomic<long> park_ns{0};  // moving average of ping -> PE 0 parked
  Watchdog dog(done, "wake storm", std::chrono::seconds(20));
  RunConverse(cfg, [&](int pe, int np) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(pe) + 1);
    int pong = -1;
    const int ping = CmiRegisterHandler([&](void*) {
      const auto t0 = std::chrono::steady_clock::now();
      if (done.load() % 2 == 0) {
        if (AwaitParked(0)) {
          ++parked_pongs;
          const long ns = static_cast<long>(
              std::chrono::nanoseconds(std::chrono::steady_clock::now() - t0)
                  .count());
          park_ns = (park_ns.load() * 7 + ns) / 8;
        }
      } else {
        const auto delay = std::chrono::nanoseconds(rng.Below(
            static_cast<std::uint64_t>(park_ns.load()) * 5 / 4 + 1));
        while (std::chrono::steady_clock::now() - t0 < delay) {
        }
      }
      void* m = CmiMakeMessage(pong, nullptr, 0);
      CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
    });
    const auto send_ping = [&](long n) {
      void* m = CmiMakeMessage(ping, nullptr, 0);
      CmiSyncSendAndFree(static_cast<unsigned>(1 + n % (np - 1)),
                         CmiMsgTotalSize(m), m);
    };
    pong = CmiRegisterHandler([&](void*) {
      const long n = ++done;
      if (n == round_trips) {
        ConverseBroadcastExit();
      } else {
        send_ping(n);
      }
    });
    if (pe == 0) send_ping(0);
    CsdScheduler(-1);
  });
  EXPECT_EQ(done.load(), round_trips);
  return parked_pongs.load();
}

}  // namespace

TEST(StressLanes, WakeStormTwoPesNeverLosesAWakeup) {
  // The lost-wakeup oracle for the lane cell store / `parked` Dekker pair:
  // every round trip blocks PE 0, every other one provably parks it, and
  // the reply must wake it every time.
  const long kRoundTrips = 200000 / SanitizerDivisor();
  EXPECT_EQ(WakeStorm(2, kRoundTrips), kRoundTrips / 2);
}

TEST(StressLanes, WakeStormFourPesNeverLosesAWakeup) {
  // As above with three peers taking turns, so each peer also sits idle
  // for two round trips between pings and is parked when its ping lands.
  const long kRoundTrips = 200000 / SanitizerDivisor();
  EXPECT_EQ(WakeStorm(4, kRoundTrips), kRoundTrips / 2);
}

// ---- the SPSC ring itself ---------------------------------------------------
//
// detail::SpscRing has no shared index: a non-null cell is a published
// message and a null one a free slot.  The ring never dereferences what it
// carries, so these tests push numbered non-null tokens.

namespace {

void* Token(std::uint64_t n) {
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(n) * 16);
}

}  // namespace

TEST(SpscRing, FullAtExactlyCapacity) {
  for (const std::size_t asked : {1u, 4u, 5u, 64u, 1000u}) {
    detail::SpscRing ring;
    ring.Init(asked);
    const std::size_t cap = ring.capacity();
    EXPECT_EQ(cap, detail::RingSlots(asked));
    EXPECT_FALSE(ring.HasItems());
    for (std::size_t i = 0; i < cap; ++i) {
      ASSERT_TRUE(ring.TryPush(Token(i + 1))) << "asked " << asked;
    }
    EXPECT_FALSE(ring.TryPush(Token(cap + 1))) << "asked " << asked;
    // One pop frees exactly one slot.
    EXPECT_EQ(ring.TryPop(), Token(1));
    EXPECT_TRUE(ring.TryPush(Token(cap + 1)));
    EXPECT_FALSE(ring.TryPush(Token(cap + 2)));
    for (std::size_t i = 1; i <= cap; ++i) {
      ASSERT_EQ(ring.TryPop(), Token(i + 1));
    }
    EXPECT_EQ(ring.TryPop(), nullptr);
    EXPECT_FALSE(ring.HasItems());
  }
}

TEST(SpscRing, FifoOverThousandsOfWrapsAndHasItemsAgreesWithTryPop) {
  detail::SpscRing ring;
  ring.Init(4);
  const std::uint64_t cap = ring.capacity();
  constexpr std::uint64_t kLaps = 3000;
  util::Xoshiro256 rng(21);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  while (popped < kLaps * cap) {
    // Fill by a random amount (possibly to full), then drain by a random
    // amount (possibly to empty), so head and tail meet at every offset.
    for (std::uint64_t k = rng.Below(cap + 1); k > 0; --k) {
      if (!ring.TryPush(Token(pushed + 1))) {
        EXPECT_EQ(pushed - popped, cap) << "refused before full";
        break;
      }
      ++pushed;
    }
    for (std::uint64_t k = rng.Below(cap + 1); k > 0; --k) {
      const bool has = ring.HasItems();
      void* msg = ring.TryPop();
      ASSERT_EQ(has, msg != nullptr) << "after " << popped << " pops";
      if (msg == nullptr) {
        ASSERT_EQ(pushed, popped);
        break;
      }
      ASSERT_EQ(msg, Token(popped + 1)) << "FIFO broken";
      ++popped;
    }
  }
  EXPECT_GT(popped / cap, 1000u);
}

TEST(SpscRing, TwoThreadSoakKeepsSequence) {
  // A 4-slot ring keeps the producer on the consumer's heels, so nearly
  // every push lands in a cell the consumer has just cleared.
  const std::uint64_t kMsgs =
      10'000'000 / static_cast<std::uint64_t>(SanitizerDivisor());
  detail::SpscRing ring;
  ring.Init(4);
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kMsgs; ++i) {
      while (!ring.TryPush(Token(i))) std::this_thread::yield();
    }
  });
  // Drain all kMsgs even after a fault, so the producer never blocks on a
  // full ring and the join below cannot hang.
  std::uint64_t out_of_order = 0;
  std::uint64_t has_but_empty = 0;
  for (std::uint64_t next = 1; next <= kMsgs;) {
    // Only the consumer pops, so a published cell stays published.
    const bool has = ring.HasItems();
    void* msg = ring.TryPop();
    if (msg == nullptr) {
      if (has) ++has_but_empty;
      std::this_thread::yield();
      continue;
    }
    if (msg != Token(next)) ++out_of_order;
    ++next;
  }
  producer.join();
  EXPECT_EQ(out_of_order, 0u) << "a token arrived out of sequence";
  EXPECT_EQ(has_but_empty, 0u) << "HasItems saw a message TryPop did not";
  EXPECT_EQ(ring.TryPop(), nullptr);
}

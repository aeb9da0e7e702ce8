// Real multi-process transport tests: fork one OS process per node and
// drive actual Unix-domain sockets between them (what tools/converserun
// does, minus the exec).  Each child runs a full RunConverse machine with
// MachineConfig::mynode set and reports pass/fail through its exit code;
// the parent asserts on the collected codes.
//
// The fault-path tests exercise the wire's failure semantics: a peer that
// dies mid-stream must abort the survivors after CONVERSE_WIRE_TIMEOUT_MS
// (never hang), and a connection torn down at a partial record must not
// deliver the truncated tail.
#include "test_helpers.h"

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

using namespace converse;

namespace {

// Exit codes children use to report what happened.
constexpr int kPass = 0;
constexpr int kCheckFailed = 3;   // machine ran but an assertion failed
constexpr int kNoAbort = 4;       // expected MachineAborted, machine exited
constexpr int kAborted = 5;       // machine aborted (expected in fault tests)

struct ForkResult {
  std::vector<int> codes;  // per-node exit code (128+sig for signals)
};

// Fork `nnodes` children; child `i` runs `body(cfg, node)` on a config
// pre-wired for real mode over a fresh Unix-socket rendezvous directory
// and _exits with its return value.  gtest never runs in the children.
ForkResult ForkNodes(int npes, int nnodes, CmiTransport transport,
                     int wire_timeout_ms,
                     const std::function<int(MachineConfig&, int)>& body) {
  char rdv[] = "/tmp/converse_mp.XXXXXX";
  if (mkdtemp(rdv) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed";
    return {};
  }
  std::vector<pid_t> pids;
  for (int node = 0; node < nnodes; ++node) {
    const pid_t pid = fork();
    if (pid == 0) {
      MachineConfig cfg;
      cfg.npes = npes;
      cfg.nnodes = nnodes;
      cfg.transport = transport;
      cfg.mynode = node;
      cfg.rendezvous_dir = rdv;
      cfg.wire_timeout_ms = wire_timeout_ms;
      _exit(body(cfg, node));
    }
    pids.push_back(pid);
  }
  ForkResult r;
  r.codes.resize(static_cast<std::size_t>(nnodes), -1);
  for (int node = 0; node < nnodes; ++node) {
    int status = 0;
    waitpid(pids[static_cast<std::size_t>(node)], &status, 0);
    r.codes[static_cast<std::size_t>(node)] =
        WIFEXITED(status) ? WEXITSTATUS(status)
                          : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }
  for (int node = 0; node < nnodes; ++node) {
    const std::string sock =
        std::string(rdv) + "/node" + std::to_string(node) + ".sock";
    unlink(sock.c_str());
  }
  rmdir(rdv);
  return r;
}

}  // namespace

TEST(TransportMp, PingpongAcrossProcesses) {
  // Two single-PE processes bounce a counted token over a real socket;
  // both sides verify the count and the sender-side wire counters.
  constexpr int kRounds = 50;
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 10000, [](MachineConfig& cfg, int) {
        int rounds = 0;
        std::uint64_t frames = 0, syscalls = 0;
        RunConverse(cfg, [&](int pe, int) {
          int h = -1;
          h = CmiRegisterHandler([&h, &rounds](void* msg) {
            int v;
            std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
            rounds = v;
            if (v >= kRounds) {
              ConverseBroadcastExit();
              return;
            }
            const int next = v + 1;
            void* m = CmiMakeMessage(h, &next, sizeof(next));
            CmiSyncSendAndFree(CmiMyPe() == 0 ? 1 : 0, CmiMsgTotalSize(m), m);
          });
          if (pe == 0) {
            const int zero = 0;
            void* m = CmiMakeMessage(h, &zero, sizeof(zero));
            CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
          }
          CsdScheduler(-1);
          const CmiStats s = CmiGetStats();
          frames = s.wire_frames_sent;
          syscalls = s.wire_syscalls;
        });
        // Each side sent ~kRounds/2 legs; every leg is one record, and
        // real sockets must have made actual syscalls to carry them.
        if (rounds < kRounds - 1) return kCheckFailed;
        if (frames == 0 || syscalls == 0) return kCheckFailed;
        return kPass;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass);
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, BroadcastAndImmediatesSmpNode) {
  // 2 processes x 2 PEs (SMP-node mode): pattern-checked broadcasts (small
  // wrapper path AND share-threshold shared-block path) plus immediates,
  // with acks converging on PE 0.
  constexpr int kSmall = 8, kBig = 2;
  constexpr std::size_t kBigBytes = 8192;
  const ForkResult r = ForkNodes(
      4, 2, CmiTransport::kSmpNode, 10000, [](MachineConfig& cfg, int) {
        std::atomic<int> bad{0};
        cfg.bcast_share_min = 4096;  // kBig broadcasts take the shared path
        RunConverse(cfg, [&](int pe, int n) {
          thread_local int acks, imms, seen;
          acks = imms = seen = 0;
          int h_ack = CmiRegisterHandler([n](void*) {
            if (++acks == (kSmall + kBig) * n) ConverseBroadcastExit();
          });
          int h_bc = CmiRegisterHandler([&bad, h_ack](void* msg) {
            unsigned seed;
            std::memcpy(&seed, CmiMsgPayload(msg), sizeof(seed));
            const auto* p =
                static_cast<const unsigned char*>(CmiMsgPayload(msg)) +
                sizeof(seed);
            const std::size_t len = CmiMsgPayloadSize(msg) - sizeof(seed);
            for (std::size_t i = 0; i < len; ++i) {
              if (p[i] != static_cast<unsigned char>((seed + i * 7) & 0xff)) {
                ++bad;
                break;
              }
            }
            ++seen;
            void* m = CmiMakeMessage(h_ack, &seed, sizeof(seed));
            CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
          });
          int h_imm = CmiRegisterHandler([](void*) { ++imms; });
          if (pe == 0) {
            for (int i = 0; i < kSmall + kBig; ++i) {
              const std::size_t body = i < kSmall ? 48 : kBigBytes;
              const unsigned seed = 0xb0u + static_cast<unsigned>(i);
              void* m = CmiAlloc(
                  static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                  sizeof(seed) + body);
              CmiSetHandler(m, h_bc);
              std::memcpy(CmiMsgPayload(m), &seed, sizeof(seed));
              auto* p = static_cast<unsigned char*>(CmiMsgPayload(m)) +
                        sizeof(seed);
              for (std::size_t j = 0; j < body; ++j) {
                p[j] = static_cast<unsigned char>((seed + j * 7) & 0xff);
              }
              CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
            }
            // A few immediates to the last PE (crosses the node boundary).
            for (int i = 0; i < 4; ++i) {
              void* m = CmiMakeMessage(h_imm, &i, sizeof(i));
              CmiSyncSendImmediateAndFree(
                  static_cast<unsigned>(n - 1), CmiMsgTotalSize(m), m);
            }
          }
          CsdScheduler(-1);
          if (seen != kSmall + kBig) ++bad;
        });
        return bad.load() == 0 ? kPass : kCheckFailed;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass);
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, LargeRecordsLandIntactAndInOrder) {
  // 2 processes x 2 PEs: every PE streams a scripted mix of record sizes
  // to both PEs on the other node — the 4 KiB direct-fill edge, back-to-
  // back 64 KiB bodies, a body past the 64 KiB pool class, small records
  // between large ones, and large immediates.  Every byte is pattern-
  // checked and every (sender, lane) stream must arrive in send order.
  struct Item {
    std::size_t total;  // whole message, header included
    bool immediate;
  };
  static const Item kScript[] = {
      {4095, false},   {4096, false},  {4097, false},  {64, false},
      {65536, false},  {65536, false}, {65536, false}, {65536, false},
      {100, false},    {204800, false}, {48, false},    {4096, true},
      {65536, false},  {8192, true},   {64, false},    {4097, false},
      {64, false},     {65536, false}, {4095, true},   {65536, false},
  };
  constexpr int kRepeats = 6;
  constexpr int kItems = static_cast<int>(std::size(kScript));
  struct Tag {
    int sender;
    int seq;  // per (sender, dest, lane) send order
    int imm;
  };
  const ForkResult r = ForkNodes(
      4, 2, CmiTransport::kSmpNode, 10000, [&](MachineConfig& cfg, int) {
        cfg.aggregate_sends = 0;  // every message is its own wire record
        std::atomic<int> bad{0};
        RunConverse(cfg, [&](int pe, int n) {
          const int half = n / 2;
          const int mine = pe / half;  // node of this PE
          // Messages each PE expects: both remote PEs run the script.
          const int want = half * kRepeats * kItems;
          thread_local int got, dones;
          thread_local std::vector<int> next;  // [sender * 2 + imm]
          got = dones = 0;
          next.assign(static_cast<std::size_t>(n) * 2, 0);
          const int h_done = CmiRegisterHandler([n](void*) {
            if (++dones == n) ConverseBroadcastExit();
          });
          auto check = [&bad, h_done, want](void* msg) {
            Tag t;
            std::memcpy(&t, CmiMsgPayload(msg), sizeof(t));
            int& expect =
                next[static_cast<std::size_t>(t.sender * 2 + t.imm)];
            if (t.seq != expect) ++bad;
            expect = t.seq + 1;
            const auto* p =
                static_cast<const unsigned char*>(CmiMsgPayload(msg));
            const std::size_t len = CmiMsgPayloadSize(msg);
            for (std::size_t i = sizeof(t); i < len; ++i) {
              if (p[i] != static_cast<unsigned char>(t.sender * 31 +
                                                     t.seq * 7 + i * 13)) {
                ++bad;
                break;
              }
            }
            if (++got == want) {
              void* d = CmiMakeMessage(h_done, nullptr, 0);
              CmiSyncSendAndFree(0, CmiMsgTotalSize(d), d);
            }
          };
          const int h_data = CmiRegisterHandler(check);
          const int h_imm = CmiRegisterHandler(check);
          std::vector<std::array<int, 2>> seqs(
              static_cast<std::size_t>(half), {0, 0});  // [dest][imm]
          for (int rep = 0; rep < kRepeats; ++rep) {
            for (int d = 0; d < half; ++d) {
              const int dest = (1 - mine) * half + d;
              std::array<int, 2>& seq = seqs[static_cast<std::size_t>(d)];
              for (const Item& it : kScript) {
                void* m = CmiAlloc(it.total);
                CmiSetHandler(m, it.immediate ? h_imm : h_data);
                const int imm = it.immediate ? 1 : 0;
                const Tag t{pe, seq[static_cast<std::size_t>(imm)]++, imm};
                std::memcpy(CmiMsgPayload(m), &t, sizeof(t));
                auto* p = static_cast<unsigned char*>(CmiMsgPayload(m));
                for (std::size_t i = sizeof(t); i < CmiMsgPayloadSize(m);
                     ++i) {
                  p[i] = static_cast<unsigned char>(t.sender * 31 +
                                                    t.seq * 7 + i * 13);
                }
                if (it.immediate) {
                  CmiSyncSendImmediateAndFree(static_cast<unsigned>(dest),
                                              CmiMsgTotalSize(m), m);
                } else {
                  CmiSyncSendAndFree(dest, CmiMsgTotalSize(m), m);
                }
              }
            }
          }
          CsdScheduler(-1);
          if (got != want) ++bad;
        });
        return bad.load() == 0 ? kPass : kCheckFailed;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass);
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, KilledPeerAbortsSurvivorAfterTimeout) {
  // Node 1 dies before ever joining the rendezvous; node 0 must abort
  // (MachineAborted surfacing as an exception from RunConverse) once the
  // wire timeout expires — a dead rank may never hang the machine.
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 1200, [](MachineConfig& cfg, int node) {
        if (node == 1) _exit(kAborted);  // die without ever connecting
        try {
          RunConverse(cfg, [&](int pe, int) {
            int h = -1;
            h = CmiRegisterHandler([](void*) {});
            if (pe == 0) {
              // Traffic for the dead peer queues, then the timeout fires.
              void* m = CmiMakeMessage(h, nullptr, 0);
              CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
            }
            CsdScheduler(-1);
          });
        } catch (const std::exception&) {
          return kAborted;  // expected: the machine aborted
        }
        return kNoAbort;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kAborted) << "survivor did not abort";
  EXPECT_EQ(r.codes[1], kAborted);
}

TEST(TransportMp, PeerDyingMidStreamAbortsSurvivor) {
  // Node 1 connects, exchanges some traffic, then dies WITHOUT the
  // goodbye handshake (simulating a crash mid-conversation, possibly at a
  // partial record).  The survivor must notice the unclean EOF, fail to
  // reconnect, and abort after the timeout instead of waiting forever.
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 1500, [](MachineConfig& cfg, int node) {
        bool got_any = false;
        try {
          RunConverse(cfg, [&](int pe, int) {
            int h = CmiRegisterHandler([&got_any](void* msg) {
              got_any = true;
              if (CmiMyPe() == 1) {
                // Crash the whole process from inside a handler: no
                // goodbye record, the socket just resets.
                _exit(kAborted);
              }
              (void)msg;
            });
            if (pe == 0) {
              for (int i = 0; i < 4; ++i) {
                void* m = CmiMakeMessage(h, &i, sizeof(i));
                CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
              }
            }
            CsdScheduler(-1);
          });
        } catch (const std::exception&) {
          return got_any || node == 0 ? kAborted : kCheckFailed;
        }
        return kNoAbort;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kAborted) << "survivor did not abort on dead peer";
  EXPECT_EQ(r.codes[1], kAborted) << "peer did not die as scripted";
}

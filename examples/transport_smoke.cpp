// transport_smoke — cross-process exerciser for the socket / SMP-node
// transport backends, used by the CI multi-process smoke leg:
//
//   tools/converserun -np 2 examples/transport_smoke
//   tools/converserun -np 4 -ppn 2 examples/transport_smoke
//
// Four phases, each with a hard pass/fail count (any mismatch exits
// nonzero through the final verification broadcast):
//
//   1. pingpong  — every PE ping-pongs a counted token with PE 0
//                  (unicast both directions across the wire);
//   1b. bulk     — every PE streams back-to-back large messages (the
//                  4 KiB direct-receive edge, 64 KiB, and past the 64 KiB
//                  pool class) to the next PE, which checks pattern and
//                  order (the socket receive path's direct body fills);
//   2. broadcast — PE 0 broadcasts small and share-threshold-sized
//                  payloads; every PE checks the pattern and replies
//                  (exercises node-cast records + in-node fan-out on both
//                  the wrapper and shared-block paths);
//   3. steal     — a skewed burst of Cld kSteal seeds spawned on PE 0
//                  must all take root somewhere (seed messages and steal
//                  protocol traffic cross the wire transparently).
//
// Also runs standalone (no converserun, single process, any PE count).
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "converse/cld.h"
#include "converse/converse.h"

using namespace converse;

namespace {

constexpr int kPings = 64;        // pingpong round trips per PE
constexpr int kSmallBcasts = 32;  // small broadcast payloads
constexpr int kBigBcasts = 4;     // share-threshold-sized payloads
constexpr std::size_t kBigBytes = 8192;
constexpr int kSeeds = 256;       // kSteal seeds spawned on PE 0
constexpr std::size_t kBulkSizes[] = {4095,  4096,  4097,  65536,
                                      65536, 65536, 65536, 204800};
constexpr int kBulkRounds = 4;    // passes over kBulkSizes
constexpr int kBulkMsgs = kBulkRounds * static_cast<int>(std::size(kBulkSizes));

std::atomic<std::uint64_t> g_seeds_run{0};
std::atomic<int> g_failures{0};

struct Counts {
  int pongs = 0;
  int bcasts = 0;
  int bcast_acks = 0;  // PE 0 only
  int seed_acks = 0;   // PE 0 only
  int bulk_seen = 0;
  int bulk_acks = 0;   // PE 0 only
};

void FillPattern(void* payload, std::size_t n, unsigned seed) {
  auto* p = static_cast<unsigned char*>(payload);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>((seed + i * 131) & 0xff);
  }
}

bool CheckPattern(const void* payload, std::size_t n, unsigned seed) {
  const auto* p = static_cast<const unsigned char*>(payload);
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != static_cast<unsigned char>((seed + i * 131) & 0xff)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  int npes = 4;
  if (const char* env = std::getenv("CONVERSE_NPES")) {
    npes = std::atoi(env);  // match the launcher so standalone runs agree
    if (npes < 1) npes = 4;
  }

  RunConverse(npes, [](int pe, int n) {
    static thread_local Counts c;
    c = Counts{};
    CldSetStrategy(CldStrategy::kSteal);

    // Completion is tracked entirely by messages converging on PE 0 (a
    // kSteal seed may take root on any node, so only message acks can
    // prove global completion): n-1 pingpong-done acks + n acks per
    // broadcast + one ack per seed + one per bulk receiver, then PE 0
    // fires the exit broadcast.
    const int want_bcasts = kSmallBcasts + kBigBcasts;
    auto maybe_finish = [n, want_bcasts] {
      if (c.pongs == (n > 1 ? n - 1 : 0) && c.bulk_acks == n &&
          c.bcast_acks == want_bcasts * n && c.seed_acks == kSeeds &&
          c.bcasts == want_bcasts) {
        ConverseBroadcastExit();
      }
    };

    // ---- handlers (registered identically everywhere) ----
    int h_pong = -1, h_ping = -1, h_bcast = -1, h_back = -1, h_seed = -1,
        h_sdone = -1, h_ppdone = -1, h_bulk = -1, h_bdone = -1;

    // PE 0: a peer finished its kPings round trips.
    h_ppdone = CmiRegisterHandler([maybe_finish](void*) {
      ++c.pongs;
      maybe_finish();
    });

    // PE!=0: the pong came back — fire the next ping, or report done.
    int h_ping_fwd = -1;
    h_pong = CmiRegisterHandler([&h_ping_fwd, &h_ppdone](void* msg) {
      int round;
      std::memcpy(&round, CmiMsgPayload(msg), sizeof(round));
      if (round + 1 < kPings) {
        const int next = round + 1;
        void* m = CmiMakeMessage(h_ping_fwd, &next, sizeof(next));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      } else {
        const int me = CmiMyPe();
        void* m = CmiMakeMessage(h_ppdone, &me, sizeof(me));
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
    });

    // PE 0: bounce each ping straight back to its sender.
    h_ping = CmiRegisterHandler([h_pong](void* msg) {
      int round;
      std::memcpy(&round, CmiMsgPayload(msg), sizeof(round));
      void* m = CmiMakeMessage(h_pong, &round, sizeof(round));
      CmiSyncSendAndFree(CmiMsgSourcePe(msg), CmiMsgTotalSize(m), m);
    });
    h_ping_fwd = h_ping;

    // PE 0: count broadcast acks.
    h_back = CmiRegisterHandler([maybe_finish](void*) {
      ++c.bcast_acks;
      maybe_finish();
    });

    // Everyone: verify a broadcast payload, ack to PE 0.
    h_bcast = CmiRegisterHandler([h_back, maybe_finish](void* msg) {
      const std::size_t size =
          CmiMsgTotalSize(msg) - static_cast<std::size_t>(
                                     CmiMsgHeaderSizeBytes()) -
          sizeof(unsigned);
      unsigned seed;
      std::memcpy(&seed, CmiMsgPayload(msg), sizeof(seed));
      if (!CheckPattern(static_cast<unsigned char*>(CmiMsgPayload(msg)) +
                            sizeof(seed),
                        size, seed)) {
        g_failures.fetch_add(1);
      }
      ++c.bcasts;
      void* m = CmiMakeMessage(h_back, &seed, sizeof(seed));
      CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      if (CmiMyPe() == 0) maybe_finish();
    });

    // PE 0: count seed-completion acks.
    h_sdone = CmiRegisterHandler([maybe_finish](void*) {
      ++c.seed_acks;
      maybe_finish();
    });

    // Seeds take root anywhere; each acks PE 0.
    h_seed = CmiRegisterHandler([&h_sdone](void* msg) {
      g_seeds_run.fetch_add(1);
      CldChargeTime(5.0);
      const int one = 1;
      void* m = CmiMakeMessage(h_sdone, &one, sizeof(one));
      CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      CmiFree(msg);
    });

    // PE 0: a PE received its whole bulk stream.
    h_bdone = CmiRegisterHandler([maybe_finish](void*) {
      ++c.bulk_acks;
      maybe_finish();
    });

    // Everyone: check one bulk message's order and pattern; ack PE 0 after
    // the last.
    h_bulk = CmiRegisterHandler([h_bdone](void* msg) {
      unsigned seq;
      std::memcpy(&seq, CmiMsgPayload(msg), sizeof(seq));
      const std::size_t size =
          CmiMsgPayloadSize(msg) - static_cast<std::size_t>(sizeof(seq));
      if (seq != static_cast<unsigned>(c.bulk_seen) ||
          !CheckPattern(static_cast<unsigned char*>(CmiMsgPayload(msg)) +
                            sizeof(seq),
                        size, seq)) {
        g_failures.fetch_add(1);
      }
      if (++c.bulk_seen == kBulkMsgs) {
        void* m = CmiMakeMessage(h_bdone, nullptr, 0);
        CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
      }
    });

    // ---- phase 1: pingpong (each non-root PE against PE 0) ----
    if (pe != 0) {
      const int zero = 0;
      void* m = CmiMakeMessage(h_ping, &zero, sizeof(zero));
      CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
    }

    // ---- phase 1b: bulk stream to the next PE (crosses the wire) ----
    for (int i = 0; i < kBulkMsgs; ++i) {
      const std::size_t total =
          kBulkSizes[static_cast<std::size_t>(i) % std::size(kBulkSizes)];
      const unsigned seq = static_cast<unsigned>(i);
      void* m = CmiAlloc(total);
      CmiSetHandler(m, h_bulk);
      std::memcpy(CmiMsgPayload(m), &seq, sizeof(seq));
      FillPattern(static_cast<unsigned char*>(CmiMsgPayload(m)) + sizeof(seq),
                  CmiMsgPayloadSize(m) - sizeof(seq), seq);
      CmiSyncSendAndFree((pe + 1) % n, CmiMsgTotalSize(m), m);
    }

    // ---- phases 2+3 driven from PE 0 ----
    if (pe == 0) {
      for (int i = 0; i < want_bcasts; ++i) {
        const bool big = i >= kSmallBcasts;
        const std::size_t body = big ? kBigBytes : 64;
        const unsigned seed = 0x5eedu + static_cast<unsigned>(i);
        void* m = CmiAlloc(static_cast<std::size_t>(
                               CmiMsgHeaderSizeBytes()) +
                           sizeof(seed) + body);
        CmiSetHandler(m, h_bcast);
        std::memcpy(CmiMsgPayload(m), &seed, sizeof(seed));
        FillPattern(static_cast<unsigned char*>(CmiMsgPayload(m)) +
                        sizeof(seed),
                    body, seed);
        CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
      }
      for (int i = 0; i < kSeeds; ++i) {
        void* m = CmiAlloc(static_cast<std::size_t>(
                               CmiMsgHeaderSizeBytes()) +
                           64);
        CmiSetHandler(m, h_seed);
        CldEnqueue(m);
      }
    }

    // Run until PE 0's exit broadcast lands everywhere.
    CsdScheduler(-1);
  });

  if (g_failures.load() != 0) {
    std::fprintf(stderr, "transport_smoke: FAILED (%d payload mismatches)\n",
                 g_failures.load());
    return 1;
  }
  std::printf("transport_smoke: ok\n");
  return 0;
}

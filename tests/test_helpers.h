// Shared helpers for Converse tests.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "converse/converse.h"
#include "converse/fuzz.h"

namespace converse::ctu {

/// Run a machine with `npes` PEs and default config.
inline void Run(int npes, const std::function<void(int, int)>& entry) {
  RunConverse(npes, entry);
}

/// Run a machine where only PE 0 executes `pe0`, all others just schedule
/// until a broadcast exit (pe0 must end with ConverseBroadcastExit()).
inline void RunPe0(int npes, const std::function<void()>& pe0) {
  RunConverse(npes, [&](int pe, int) {
    if (pe == 0) pe0();
    CsdScheduler(-1);
  });
}

/// The usual SPMD pattern: every PE runs `before`, then sits in
/// CsdScheduler(-1) until some handler broadcasts exit.
inline void RunAll(int npes, const std::function<void(int, int)>& before) {
  RunConverse(npes, [&](int pe, int n) {
    before(pe, n);
    CsdScheduler(-1);
  });
}

/// A per-test atomic counter array indexed by PE.
class PerPeCounters {
 public:
  explicit PerPeCounters(int npes) : counts_(npes) {
    for (auto& c : counts_) c.store(0);
  }
  void Add(int pe, long v = 1) { counts_[static_cast<size_t>(pe)] += v; }
  long Get(int pe) const { return counts_[static_cast<size_t>(pe)].load(); }
  long Total() const {
    long t = 0;
    for (const auto& c : counts_) t += c.load();
    return t;
  }

 private:
  std::vector<std::atomic<long>> counts_;
};

/// Parses a simfuzz replay line back into parameters with the workload's
/// own flag parser.  A leading CONVERSE_SIM_SEED=N sets the seed, as the
/// environment variable does for simfuzz.
template <class P, class R>
P ParseReplay(const fuzz::Workload<P, R>& w, const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);
  P p;
  const std::string env = "CONVERSE_SIM_SEED=";
  if (!words.empty() && words[0].rfind(env, 0) == 0) {
    p.seed = std::stoull(words[0].substr(env.size()));
    words.erase(words.begin());
  }
  std::vector<const char*> argv;
  for (const std::string& word : words) argv.push_back(word.c_str());
  fuzz::Cli cli;
  EXPECT_EQ(w.Parse(static_cast<int>(argv.size()), argv.data(), p, cli), "")
      << line;
  return p;
}

/// Doubles for replay round-trip tests: a short one, and ones that need
/// all 17 significant digits to read back exactly.
inline const auto kReplayDoubles =
    ::testing::Values(0.05, 0.1 + 0.2, 1.0 / 3, 0.12345678901234568);

}  // namespace converse::ctu

// Table-driven driver for the seed-replay fuzz workloads (tools/simfuzz).
//
// A workload declares its parameters once, as an ordered table of Fields
// (flag, accessor, shrink rule, print rule, accepted range), plus its run
// function and shrink budget.  Everything else is derived here from that
// table: greedy shrinking, the one-line replay command, simfuzz flag
// parsing and range checks, the usage text, and the run/sweep loop.  Table
// order is the replay and usage order; Field::step is the shrink order,
// kept separately because greedy shrinking is order-dependent.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace converse::fuzz {

/// A typed pointer to one member of a workload's parameter struct.
using Ref = std::variant<int*, std::uint32_t*, std::uint64_t*, double*, bool*>;

/// Accessor for a (possibly nested) member, e.g.
/// At<&SvcFuzzParams::faults, &SimFaults::drop>.
template <auto... M, class P>
Ref At(P& p) {
  return &(p .* ... .* M);
}

enum class Shrink : std::uint8_t {
  kKeep,   // never shrunk
  kHalve,  // while above `floor`, try half the value
  kFloor,  // while above `floor`, try `floor` (0 turns a switch or fault off)
};

enum class Print : std::uint8_t {
  kAlways,    // every replay line names it
  kIfSet,     // only when nonzero (a switch: when it holds `sets`)
  kWithPrev,  // only when the field before it was printed
};

constexpr double kInf = std::numeric_limits<double>::infinity();

template <class P>
struct Field {
  const char* flag;
  Ref (*at)(P&);
  Shrink shrink = Shrink::kKeep;
  int step = 0;  // position in the shrink order
  double floor = 0;
  Print print = Print::kAlways;
  double lo = 0, hi = kInf;  // accepted values, inclusive
  int sets = 0;  // nonzero: a switch that takes no value and stores this
  /// Shrinking this field lowers that one to at most the new value.
  Ref (*caps)(P&) = nullptr;
};

/// The flags every workload shares.
struct Cli {
  std::uint64_t seeds = 1, start = 1;
  bool explicit_seed = false, sweep = false;
  bool trace_hash = false, quiet = false, help = false;
};

namespace detail {

inline double Get(Ref r) {
  return std::visit([](auto* v) { return static_cast<double>(*v); }, r);
}

inline void Set(Ref r, double x) {
  std::visit(
      [x](auto* v) { *v = static_cast<std::remove_pointer_t<decltype(v)>>(x); },
      r);
}

/// Doubles print as %g, widened until they read back exactly.
inline std::string Text(Ref r) {
  return std::visit(
      [](auto* v) -> std::string {
        if constexpr (std::is_same_v<decltype(v), double*>) {
          char buf[32];
          for (int digits = 6;; ++digits) {
            std::snprintf(buf, sizeof(buf), "%.*g", digits, *v);
            if (digits == 17 || std::strtod(buf, nullptr) == *v) return buf;
          }
        } else {
          return std::to_string(*v);
        }
      },
      r);
}

/// Parses `text` into the member; false when malformed or outside [lo, hi].
inline bool Store(Ref r, const char* text, double lo, double hi) {
  return std::visit(
      [&](auto* v) {
        std::remove_pointer_t<decltype(v)> x{};
        const char* end = text + std::strlen(text);
        bool whole = false;
        if constexpr (std::is_same_v<decltype(v), double*>) {
          char* stop = nullptr;
          x = std::strtod(text, &stop);
          whole = stop == end && stop != text;
        } else if constexpr (!std::is_same_v<decltype(v), bool*>) {
          const auto [stop, ec] = std::from_chars(text, end, x);
          whole = ec == std::errc() && stop == end;
        }
        const double d = static_cast<double>(x);
        if (!whole || !(d >= lo && d <= hi)) return false;
        *v = x;
        return true;
      },
      r);
}

}  // namespace detail

/// One fuzz workload: its parameter table plus how to run a case.  P has a
/// `std::uint64_t seed`; R has `bool ok` and `std::string failure`, and a
/// `report.trace_hash` when the workload supports --trace-hash.
template <class P, class R>
struct Workload {
  static constexpr bool kTraced = requires(const R& r) { r.report.trace_hash; };

  const char* mode;  // selecting flag; nullptr for the default workload
  bool seed_env = false;  // replay seeds via CONVERSE_SIM_SEED, not --seed
  R (*run)(const P&);
  void (*print_ok)(const P&, const R&);  // details of a passing seed's line
  int budget = 0;  // shrink re-runs; 0 reports failures unshrunk
  void (*pin)(P&) = nullptr;  // fixes draws the shrinker must not re-roll
  const char* unavailable = nullptr;  // why this build cannot run it
  std::vector<Field<P>> fields;

  /// Greedy shrink of a failing case: fields in step order, restarting
  /// after each reduction that still fails, at most `budget` re-runs.
  /// Returns the smallest still-failing parameters (the input itself if
  /// nothing smaller fails).
  P Minimize(const P& failing) const { return Minimize(failing, budget); }
  P Minimize(const P& failing, int runs) const {
    std::vector<const Field<P>*> order;
    for (const Field<P>& f : fields) {
      if (f.shrink != Shrink::kKeep) order.push_back(&f);
    }
    std::stable_sort(
        order.begin(), order.end(),
        [](const auto* a, const auto* b) { return a->step < b->step; });
    P best = failing;
    if (pin != nullptr) pin(best);
    bool improved = true;
    while (improved && runs > 0) {
      improved = false;
      for (const Field<P>* f : order) {
        const double v = detail::Get(f->at(best));
        if (v <= f->floor) continue;
        if (runs-- == 0) break;
        P t = best;
        const Ref r = f->at(t);
        detail::Set(r, f->shrink == Shrink::kHalve ? v / 2 : f->floor);
        if (f->caps != nullptr && detail::Get(f->caps(t)) > detail::Get(r)) {
          detail::Set(f->caps(t), detail::Get(r));
        }
        if (!run(t).ok) {
          best = t;
          improved = true;
          break;
        }
      }
    }
    return best;
  }

  /// One-line replay command, e.g.
  /// "tools/simfuzz --service --seed 7 --pes 4 ... --plant-lost-reply".
  std::string FormatReplay(const P& params) const {
    P p = params;
    const std::string seed = std::to_string(p.seed);
    std::string out =
        seed_env ? "CONVERSE_SIM_SEED=" + seed + " tools/simfuzz"
                 : "tools/simfuzz " + std::string(mode) + " --seed " + seed;
    bool prev = false;
    for (const Field<P>& f : fields) {
      const double v = detail::Get(f.at(p));
      const bool set = f.sets != 0 ? v == f.sets : v != 0;
      prev = f.print == Print::kAlways || (f.print == Print::kIfSet && set) ||
             (f.print == Print::kWithPrev && prev);
      if (!prev) continue;
      out += std::string(" ") + f.flag;
      if (f.sets == 0) out += " " + detail::Text(f.at(p));
    }
    return out;
  }

  /// Parses simfuzz's arguments (argv[0] is the program) into `p` and
  /// `cli`; returns an error message, or "" on success.  Flags outside this
  /// workload's table are errors.
  std::string Parse(int argc, const char* const* argv, P& p, Cli& cli) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&](Ref r, double lo, double hi) -> std::string {
        if (i + 1 >= argc) return "missing value for " + arg;
        ++i;
        if (detail::Store(r, argv[i], lo, hi)) return "";
        return "invalid " + arg + " " + argv[i];
      };
      std::string err;
      if (mode != nullptr && arg == mode) continue;
      if (arg == "--help" || arg == "-h") {
        cli.help = true;
        return "";
      }
      if (arg == "--quiet") {
        cli.quiet = true;
      } else if (kTraced && arg == "--trace-hash") {
        cli.trace_hash = true;
      } else if (arg == "--seed") {
        err = value(&p.seed, 0, kInf);
        cli.explicit_seed = true;
      } else if (arg == "--seeds") {
        err = value(&cli.seeds, 0, kInf);
        cli.sweep = true;
      } else if (arg == "--start") {
        err = value(&cli.start, 0, kInf);
      } else {
        const auto f = std::find_if(
            fields.begin(), fields.end(),
            [&](const Field<P>& x) { return arg == x.flag; });
        if (f == fields.end()) {
          return "unknown option " + arg +
                 (mode != nullptr ? std::string(" for ") + mode : "");
        }
        if (f->sets != 0) {
          detail::Set(f->at(p), f->sets);
        } else {
          err = value(f->at(p), f->lo, f->hi);
        }
      }
      if (!err.empty()) return err;
    }
    return "";
  }

  /// This workload's usage lines, wrapped, the first starting with `lead`.
  std::string Usage(const char* lead, const char* argv0) const {
    std::vector<std::string> words;
    if (mode != nullptr) words.emplace_back(mode);
    for (const char* w : {"[--seed N]", "[--seeds COUNT]", "[--start N]"}) {
      words.emplace_back(w);
    }
    for (const Field<P>& f : fields) {
      P p{};
      const bool real = std::holds_alternative<double*>(f.at(p));
      const char* arg = f.sets != 0 ? ""
                        : !real     ? " N"
                        : f.hi == 1 ? " P"
                                    : " R";
      words.push_back(std::string("[") + f.flag + arg + "]");
    }
    if (kTraced) words.emplace_back("[--trace-hash]");
    words.emplace_back("[--quiet]");
    std::string out, line = std::string(lead) + argv0;
    for (const std::string& w : words) {
      if (line.size() + 1 + w.size() > 78) {
        out += line + "\n";
        line = std::string(10, ' ') + w;
      } else {
        line += " " + w;
      }
    }
    return out + line + "\n";
  }

  /// Runs one case and reports it: the trace hash if asked, an ok line, or
  /// the failure, its shrunk form and a replay command.  True iff ok.
  bool RunOne(const P& p, const Cli& cli) const {
    const R res = run(p);
    if constexpr (kTraced) {
      if (cli.trace_hash) {
        std::printf("%016llx\n",
                    static_cast<unsigned long long>(res.report.trace_hash));
      }
    }
    const auto seed = static_cast<unsigned long long>(p.seed);
    if (res.ok) {
      if (!cli.quiet) {
        std::printf("seed %llu: ok (", seed);
        print_ok(p, res);
        std::printf(")\n");
      }
      return true;
    }
    std::fprintf(stderr, "seed %llu: FAILED: %s\n", seed, res.failure.c_str());
    P replay = p;
    if (budget > 0) {
      std::fprintf(stderr, "minimizing...\n");
      const P small = Minimize(p);
      const R small_res = run(small);
      std::fprintf(stderr, "minimized failure: %s\n",
                   (small_res.ok ? res : small_res).failure.c_str());
      if (!small_res.ok) replay = small;
    }
    std::fprintf(stderr, "replay with:\n  %s\n", FormatReplay(replay).c_str());
    return false;
  }

  /// simfuzz for this workload: exit 0 iff every seed passed, 1 on a
  /// failing seed, 2 on a usage error.
  int Main(int argc, char** argv, const std::string& usage) const {
    P p;
    Cli cli;
    std::string err;
    if (const char* env = std::getenv("CONVERSE_SIM_SEED")) {
      cli.explicit_seed = true;
      if (!detail::Store(&p.seed, env, 0, kInf)) {
        err = std::string("invalid CONVERSE_SIM_SEED ") + env;
      }
    }
    if (err.empty()) err = Parse(argc, argv, p, cli);
    if (cli.help || !err.empty()) {
      if (!err.empty()) std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
      std::fputs(usage.c_str(), stderr);
      return err.empty() ? 0 : 2;
    }
    if (unavailable != nullptr) {
      std::fprintf(stderr, "%s: %s\n", argv[0], unavailable);
      return 2;
    }
    if (!cli.sweep) return RunOne(p, cli) ? 0 : 1;
    if (cli.explicit_seed) cli.start = p.seed;
    for (std::uint64_t s = cli.start; s < cli.start + cli.seeds; ++s) {
      p.seed = s;
      if (!RunOne(p, cli)) return 1;
    }
    if (!cli.quiet) {
      std::printf("all %llu seeds passed\n",
                  static_cast<unsigned long long>(cli.seeds));
    }
    return 0;
  }
};

/// simfuzz's entry point: at most one workload's mode flag selects it (the
/// default workload, whose mode is nullptr, runs without one).
template <class... W>
int Main(int argc, char** argv, const W&... workloads) {
  const auto named = [&](const char* mode) {
    const auto is_mode = [&](const char* a) {
      return std::strcmp(a, mode) == 0;
    };
    return mode != nullptr && std::any_of(argv + 1, argv + argc, is_mode);
  };
  std::string usage;
  ((usage += workloads.Usage(usage.empty() ? "usage: " : "       ", argv[0])),
   ...);
  const int modes = (static_cast<int>(named(workloads.mode)) + ...);
  if (modes > 1) {
    std::fprintf(stderr, "%s: at most one workload flag may be given\n",
                 argv[0]);
    return 2;
  }
  int rc = 2;
  const auto run_if_selected = [&](const auto& w) {
    if (modes == 1 ? named(w.mode) : w.mode == nullptr) {
      rc = w.Main(argc, argv, usage);
    }
  };
  (run_if_selected(workloads), ...);
  return rc;
}

}  // namespace converse::fuzz

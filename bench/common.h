#pragma once
// Shared scaffolding for the figure-reproduction benches and the seed-taking
// examples: one CLI grammar, one scenario resolver, one corpus generator —
// so every binary reproduces a run from the same three words (scenario,
// seed, json path).
//
// Usage: <bench> [seed] [--scenario <name>] [--json <path>] [--smoke]
//   seed              decimal uint64; anything else is rejected with a
//                     usage message (a silently mis-parsed seed would
//                     "reproduce" a different run).
//   --scenario <name> named generation scenario (src/data/scenario.h);
//                     default "legacy", the calibrated corpus every golden
//                     figure is pinned to.
//   --json <path>     at exit, dump the obs metrics snapshot plus
//                     wall-clock timing to <path> (the BENCH_<name>.json
//                     perf-trajectory format; see scripts/bench_snapshot.sh).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/data/scenario.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"

namespace digg::bench {

struct CliOptions {
  std::uint64_t seed = 42;
  std::string scenario = "legacy";
  bool scenario_given = false;  // --scenario was on the command line
  std::string json_path;
  bool smoke = false;  // downscale the scenario corpus (CI smokes)
};

struct Context {
  data::ScenarioSpec scenario;      // the resolved spec (name, params, seed)
  data::SyntheticCorpus synthetic;  // the generated corpus
  stats::Rng rng;  // stream for experiment-level randomness (CV folds etc.)
};

/// Strict decimal uint64 parse: rejects empty strings, signs, trailing
/// garbage, and overflow (strtoull alone accepts all four silently, which
/// would "reproduce" a different run). Shared with the seed-taking examples.
inline bool parse_seed_strict(const char* arg, std::uint64_t& out) {
  if (arg == nullptr || *arg == '\0') return false;
  for (const char* p = arg; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (errno == ERANGE || end == arg || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

namespace detail {

// State for the atexit JSON report (inline: one definition per binary).
struct Report {
  std::string json_path;
  std::string title;
  std::uint64_t seed = 0;
  std::chrono::steady_clock::time_point start;
};

inline Report& report() {
  static Report r;
  return r;
}

inline void write_report_at_exit() {
  const Report& r = report();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - r.start)
          .count();
  obs::write_bench_report(r.json_path, r.title, r.seed, wall_ms);
}

[[noreturn]] inline void usage(const char* argv0, bool figure_selector) {
  std::fprintf(stderr,
               "usage: %s [seed] [--scenario <name>] [--json <path>] "
               "[--smoke]%s\n",
               argv0, figure_selector ? " [--figure <name>]" : "");
  std::fprintf(stderr,
               "  --smoke downsizes the corpus (20k users / 200 stories) "
               "for CI smokes\n");
  std::fprintf(stderr, "  seed must be a decimal unsigned 64-bit integer\n");
  std::fprintf(stderr, "  scenarios:");
  for (const std::string& n : data::scenario_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace detail

/// The shared CLI grammar. Unknown flags and malformed seeds exit with the
/// usage message; an unknown scenario name is caught later by
/// make_scenario (its error lists the known names). `--figure <name>` is
/// accepted only when `figure` is non-null (the figures driver).
inline CliOptions parse_cli(int argc, char** argv,
                            std::string* figure = nullptr) {
  CliOptions opts;
  const auto value = [&](int& i) {
    if (i + 1 >= argc) detail::usage(argv[0], figure != nullptr);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      opts.json_path = value(i);
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      opts.scenario = value(i);
      opts.scenario_given = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (figure != nullptr && std::strcmp(argv[i], "--figure") == 0) {
      *figure = value(i);
    } else if (!parse_seed_strict(argv[i], opts.seed)) {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], argv[i]);
      detail::usage(argv[0], figure != nullptr);
    }
  }
  return opts;
}

/// Installs the atexit JSON report if `json_path` is set. Split out of
/// make_context for binaries that drive generation themselves (the perf
/// benches) but still emit BENCH_*.json.
inline void arm_report(const CliOptions& opts, const char* title) {
  if (opts.json_path.empty()) return;
  detail::Report& r = detail::report();
  r.json_path = opts.json_path;
  r.title = title;
  r.seed = opts.seed;
  r.start = std::chrono::steady_clock::now();
  std::atexit(detail::write_report_at_exit);
}

/// Resolves the scenario and generates its corpus. Exits with the
/// scenario's error message (listing known names) when the scenario is
/// unknown.
inline Context generate_context(const CliOptions& opts) {
  data::ScenarioSpec spec;
  try {
    spec = data::make_scenario(opts.scenario, opts.seed);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    std::exit(2);
  }
  // CI smokes (scripts/ci.sh) shrink every scenario the same way; figure
  // shapes survive the downscale, wall time drops to seconds.
  if (opts.smoke) data::downscale(spec, 20000, 200);
  stats::Rng rng(spec.seed);
  data::SyntheticCorpus synthetic = data::generate_corpus(spec.params, rng);
  return Context{std::move(spec), std::move(synthetic), rng.fork()};
}

/// The run line that follows the title of every corpus-backed output.
inline void print_corpus_line(const Context& ctx) {
  const data::Corpus& corpus = ctx.synthetic.corpus;
  std::printf(
      "corpus: scenario=%s model=%s seed=%llu users=%zu stories=%zu "
      "front_page=%zu upcoming=%zu\n\n",
      ctx.scenario.name.c_str(), ctx.scenario.model_id().c_str(),
      static_cast<unsigned long long>(ctx.scenario.seed), corpus.user_count(),
      corpus.story_count(), corpus.front_page.size(), corpus.upcoming.size());
}

/// Prints the title, generates the corpus and echoes the run line.
inline Context make_context(const CliOptions& opts, const char* title) {
  arm_report(opts, title);
  std::printf("== %s ==\n", title);
  Context ctx = generate_context(opts);
  print_corpus_line(ctx);
  return ctx;
}

inline Context make_context(int argc, char** argv, const char* title) {
  return make_context(parse_cli(argc, argv), title);
}

}  // namespace digg::bench

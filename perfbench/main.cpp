// perfbench: the repository benchmark.
//
//   perfbench --workload <reproduce|replay|serve> --seed <n> --seconds <s>
//             --trace <0|1> --work-dir <dir>
//   perfbench --list-metrics
//
// --trace 0 runs one workload untraced and prints its end-to-end metrics.
// --trace 1 runs the traced sweep: every workload's passes with spans
// recorded from this program's own code, plus isolated layer probes, and
// prints the per-layer table for each workload and every per-layer metric.
// The last line of stdout is the JSON result; a host line precedes it.
// An end-to-end run also prints every pass's values to stderr.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "common.h"
#include "metrics.h"
#include "src/obs/log.h"
#include "src/simd/dispatch.h"
#include "trace.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <reproduce|replay|serve> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host() {
  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"threads\": {\"reproduce\": %u, \"replay\": %u, \"serve_engine\": %u, "
      "\"serve_connections\": %u}, \"compiler\": \"%s\", \"build\": \"%s\"}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      digg::simd::level_name(digg::simd::active_level()), kReproduceThreads,
      kReplayThreads, kServeEngineThreads, kServeConnections,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

void list_metrics() {
  auto list = [](const char* key, const auto& defs, bool last) {
    std::printf("  \"%s\": [", key);
    for (std::size_t i = 0; i < defs.size(); ++i)
      std::printf("%s{\"name\": \"%.*s\", \"unit\": \"%.*s\"}",
                  i ? ", " : "", static_cast<int>(defs[i].name.size()),
                  defs[i].name.data(), static_cast<int>(defs[i].unit.size()),
                  defs[i].unit.data());
    std::printf("]%s\n", last ? "" : ",");
  };
  std::printf("{\n  \"workloads\": [");
  for (std::size_t i = 0; i < kWorkloads.size(); ++i)
    std::printf("%s\"%.*s\"", i ? ", " : "",
                static_cast<int>(kWorkloads[i].size()), kWorkloads[i].data());
  std::printf("],\n");
  list("end_to_end", kEndToEnd, false);
  list("per_layer", kPerLayer, true);
  std::printf("}\n");
}

// Prints the result line. Refuses (returns false) unless the metrics are
// exactly the table's and every value is finite.
template <class Defs>
bool print_result(const RunResult& r, const Defs& defs) {
  std::set<std::string> want;
  for (const MetricDef& d : defs) want.emplace(d.name);
  std::set<std::string> have;
  for (const auto& [name, value] : r.metrics) {
    have.insert(name);
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return false;
    }
  }
  if (have != want) {
    std::fprintf(stderr, "perfbench: printed metrics differ from the table\n");
    return false;
  }
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%.*s\": {\"value\": %.17g, "
                  "\"unit\": \"%.*s\"}",
                  first ? "" : ", ", static_cast<int>(d.name.size()),
                  d.name.data(), r.metrics.at(std::string(d.name)),
                  static_cast<int>(d.unit.size()), d.unit.data());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::uint64_t seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  fs::path work_root;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--list-metrics") == 0) {
      list_metrics();
      return 0;
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      opts.workload = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      have_seed = parse_u64(value(), opts.seed);
      if (!have_seed) usage(argv[0]);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      have_seconds = parse_u64(value(), seconds) && seconds > 0;
      if (!have_seconds) usage(argv[0]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      have_trace = parse_u64(value(), trace) && trace <= 1;
      if (!have_trace) usage(argv[0]);
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      work_root = value();
    } else {
      usage(argv[0]);
    }
  }
  bool known = false;
  for (const auto w : kWorkloads) known = known || opts.workload == w;
  if (!known || !have_seed || !have_seconds || !have_trace ||
      work_root.empty())
    usage(argv[0]);
  opts.seconds = static_cast<double>(seconds);
  opts.trace = trace == 1;
  opts.work_dir = work_root / ("run-" + std::to_string(::getpid()));

  digg::obs::set_log_level(digg::obs::LogLevel::kWarn);
  int status = 0;
  try {
    fs::create_directories(opts.work_dir);
    RunResult r;
    if (!opts.trace) {
      if (opts.workload == "reproduce") r = run_reproduce(opts);
      if (opts.workload == "replay") r = run_replay(opts);
      if (opts.workload == "serve") r = run_serve(opts);
      r.metrics["peak_rss_mb"] = peak_rss_mb();
    } else {
      r.merge(trace_reproduce(opts));
      r.merge(trace_replay(opts));
      r.merge(trace_serve(opts));
      Tracer::global().write_chrome_trace(
          (work_root / "perfbench-trace.json").string());
      std::printf("per-layer breakdown (seed %llu)\n",
                  static_cast<unsigned long long>(opts.seed));
      for (const std::string& row : r.table) std::printf("%s\n", row.c_str());
    }
    print_host();
    const bool printed = opts.trace ? print_result(r, kPerLayer)
                                    : print_result(r, kEndToEnd);
    status = printed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(opts.work_dir, ec);
  return status;
}

// Tests for the observability layer (src/obs): logger level filtering and
// field formatting, metrics registry correctness under concurrent updates
// (run under -DDIGG_SANITIZE=thread to prove the hot path is race-free),
// spans and their Chrome-trace export (nesting, ring wrap, latency
// observation), flight-recorder seqlock semantics (wraparound, concurrent
// writers vs dumpers), crash-report dumps (open spans, SIGUSR2
// mid-replay), percentile derivation, the Prometheus exporter, the
// watchdog, hardware counters, and the zero-perturbation contract — the
// fig5 pipeline must be bit-identical with every telemetry surface on.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/data/synthetic.h"
#include "src/obs/env.h"
#include "src/obs/exporter.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/perf.h"
#include "src/obs/recorder.h"
#include "src/obs/watchdog.h"
#include "src/runtime/parallel.h"
#include "src/serve/server.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

// The SIGUSR2 dump-and-continue path snapshots the metrics registry from
// inside the handler, which allocates — the documented accepted risk of
// DESIGN.md §10 (the ring dump itself is async-signal-safe; the metrics
// section is best-effort via try_lock). TSan's signal-unsafe-call checker
// flags exactly that trade-off, so suppress it for this binary only;
// genuine data races still fail the run.
extern "C" const char* __tsan_default_suppressions() {
  return "signal:write_crash_report\n";
}

namespace digg::obs {
namespace {

// ------------------------------------------------------------------ logger

/// Captures emitted lines and restores the default sink + level on exit.
class LogCapture {
 public:
  LogCapture() : saved_level_(log_level()) {
    set_log_sink([this](std::string_view line) {
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() {
    set_log_sink(nullptr);
    set_log_level(saved_level_);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
  LogLevel saved_level_;
};

TEST(LogLevelParse, KnownNamesAndFallback) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(LogFilter, DropsBelowThresholdKeepsAtOrAbove) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  log_debug("test", "dropped");
  log_info("test", "dropped");
  log_warn("test", "kept");
  log_error("test", "kept too");
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_NE(capture.lines()[0].find("level=warn"), std::string::npos);
  EXPECT_NE(capture.lines()[1].find("level=error"), std::string::npos);
}

TEST(LogFilter, OffSilencesEverything) {
  LogCapture capture;
  set_log_level(LogLevel::kOff);
  log_error("test", "dropped");
  EXPECT_TRUE(capture.lines().empty());
}

TEST(LogFormat, FieldKindsRenderAsKeyValue) {
  const std::string line = format_log_line(
      LogLevel::kInfo, "comp", "msg",
      {{"i", -3}, {"u", 7u}, {"d", 0.5}, {"flag", true}, {"s", "plain"}});
  EXPECT_NE(line.find("level=info"), std::string::npos);
  EXPECT_NE(line.find("comp=comp"), std::string::npos);
  EXPECT_NE(line.find("msg=msg"), std::string::npos);
  EXPECT_NE(line.find(" i=-3"), std::string::npos);
  EXPECT_NE(line.find(" u=7"), std::string::npos);
  EXPECT_NE(line.find(" d=0.5"), std::string::npos);
  EXPECT_NE(line.find(" flag=true"), std::string::npos);
  EXPECT_NE(line.find(" s=plain"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LogFormat, StringsWithSpacesOrQuotesAreQuoted) {
  const std::string line =
      format_log_line(LogLevel::kInfo, "comp", "two words",
                      {{"path", "/tmp/x y"}, {"q", "say \"hi\""}});
  EXPECT_NE(line.find("msg=\"two words\""), std::string::npos);
  EXPECT_NE(line.find("path=\"/tmp/x y\""), std::string::npos);
  EXPECT_NE(line.find("q=\"say \\\"hi\\\"\""), std::string::npos);
}

TEST(LogFormat, StartsWithMonotonicTimestamp) {
  const std::string line = format_log_line(LogLevel::kInfo, "c", "m", {});
  EXPECT_EQ(line.rfind("t=", 0), 0u);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, RegistryReturnsSameInstrumentForSameName) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test.identity");
  Counter& b = reg.counter("obs_test.identity");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("obs_test.gauge");
  Gauge& g2 = reg.gauge("obs_test.gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  Counter& c = Registry::global().counter("obs_test.concurrent");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    runtime::ParallelOptions opts;
    opts.threads = kThreads;
    runtime::parallel_for(
        kThreads,
        [&](std::size_t) {
          for (int i = 0; i < kPerThread; ++i) c.inc();
        },
        opts);
  }
  EXPECT_EQ(c.value() - before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentHistogramObservationsAreExact) {
  Histogram& h =
      Registry::global().histogram("obs_test.hist", {1.0, 2.0, 4.0});
  const std::uint64_t before = h.count();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1.5);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count() - before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramBucketsSplitAtBounds) {
  Histogram& h = Registry::global().histogram("obs_test.buckets",
                                              {10.0, 100.0, 1000.0});
  h.observe(5.0);     // <= 10
  h.observe(10.0);    // <= 10 (inclusive upper bound)
  h.observe(50.0);    // <= 100
  h.observe(5000.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
}

TEST(Metrics, JsonSnapshotContainsInstruments) {
  Registry& reg = Registry::global();
  reg.counter("obs_test.json_counter").inc(3);
  reg.gauge("obs_test.json_gauge").set(2.5);
  reg.histogram("obs_test.json_hist", {1.0}).observe(0.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(Metrics, WriteBenchReportProducesJsonFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_bench.json";
  ASSERT_TRUE(write_bench_report(path.string(), "obs_test", 42, 12.5));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"bench\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------- trace

std::string slurp_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Minimal recursive-descent JSON validator: true iff `text` is exactly one
/// well-formed JSON value (whitespace around it allowed).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      i_ += s_[i_] == '\\' ? 2 : 1;
    }
    return i_++ < s_.size();
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }
  bool value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': {
        ++i_;
        if (eat('}')) return true;
        do {
          if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++i_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      }
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// One exported trace event; write_chrome_trace puts one per line.
struct TraceEvent {
  std::string name;
  std::string ph;
  std::uint64_t tid = 0;
  double ts = 0.0;
  std::uint64_t arg = 0;
};

std::string json_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = line.find(tag);
  if (at == std::string::npos) return "";
  std::size_t from = at + tag.size();
  if (line[from] == '"') {
    ++from;
    return line.substr(from, line.find('"', from) - from);
  }
  return line.substr(from, line.find_first_of(",}", from) - from);
}

std::vector<TraceEvent> parse_trace(const std::string& json) {
  std::vector<TraceEvent> out;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    TraceEvent e;
    e.name = json_field(line, "name");
    e.ph = json_field(line, "ph");
    e.tid = std::stoull(json_field(line, "tid"));
    e.ts = std::stod(json_field(line, "ts"));
    if (e.ph != "i") e.arg = std::stoull(json_field(line, "arg"));
    out.push_back(std::move(e));
  }
  return out;
}

/// Every tid's B/E events pair up and nest: each E closes the innermost
/// open B of the same name, and nothing is left open.
void expect_balanced_and_nested(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::vector<std::string>> open;
  for (const TraceEvent& e : events) {
    if (e.ph == "B") {
      open[e.tid].push_back(e.name);
    } else if (e.ph == "E") {
      std::vector<std::string>& stack = open[e.tid];
      ASSERT_FALSE(stack.empty()) << "unmatched E " << e.name << " tid "
                                  << e.tid;
      EXPECT_EQ(stack.back(), e.name) << "tid " << e.tid;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open)
    EXPECT_TRUE(stack.empty()) << stack.size() << " open spans on tid "
                               << tid;
}

TEST(Trace, SpansNestAndOrderInOutput) {
  set_recorder_enabled(true);
  std::thread([] {
    Span outer("test.nest_outer", 1);
    {
      Span inner("test.nest_inner", 2);
    }
    {
      Span inner2("test.nest_inner2", 3);
    }
  }).join();
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_trace.json";
  ASSERT_TRUE(write_chrome_trace(path.string()));
  const std::string json = slurp_text(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  std::vector<TraceEvent> mine;
  for (TraceEvent& e : parse_trace(json))
    if (e.name.rfind("test.nest_", 0) == 0) mine.push_back(std::move(e));
  // Begin and end events, in the order the scopes opened and closed, all on
  // the recording thread's tid with non-decreasing timestamps.
  const std::vector<std::pair<std::string, std::string>> want = {
      {"B", "test.nest_outer"},  {"B", "test.nest_inner"},
      {"E", "test.nest_inner"},  {"B", "test.nest_inner2"},
      {"E", "test.nest_inner2"}, {"E", "test.nest_outer"}};
  ASSERT_EQ(mine.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(mine[i].ph, want[i].first) << i;
    EXPECT_EQ(mine[i].name, want[i].second) << i;
    EXPECT_EQ(mine[i].tid, mine[0].tid) << i;
    if (i > 0) {
      EXPECT_GE(mine[i].ts, mine[i - 1].ts) << i;
    }
  }
  EXPECT_EQ(mine[0].arg, 1u);
  EXPECT_EQ(mine[1].arg, 2u);
  EXPECT_EQ(mine[3].arg, 3u);
}

TEST(Trace, RuntimeChunkSpansAppearInTrace) {
  set_recorder_enabled(true);
  runtime::ParallelOptions opts;
  opts.threads = 4;
  std::atomic<int> calls{0};
  runtime::parallel_for(
      100, [&](std::size_t) { calls.fetch_add(1); }, opts);
  EXPECT_EQ(calls.load(), 100);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_runtime_trace.json";
  ASSERT_TRUE(write_chrome_trace(path.string()));
  const std::string json = slurp_text(path);
  std::filesystem::remove(path);
  EXPECT_NE(json.find("\"name\":\"runtime.chunk\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"runtime.job\",\"ph\":\"B\""),
            std::string::npos);
  expect_balanced_and_nested(parse_trace(json));
}

TEST(Trace, DisabledRecorderRecordsNoSpanAndNoObservation) {
  Histogram& latency =
      Registry::global().histogram("obs_test.span_latency_us");
  const std::uint64_t before = latency.count();
  set_recorder_enabled(false);
  std::thread([&latency] { Span span("test.disabled", 5, &latency); }).join();
  set_recorder_enabled(true);
  EXPECT_EQ(latency.count(), before);
  EXPECT_EQ(dump_recorder().find("name=test.disabled"), std::string::npos);
  // The same span with the recorder on is recorded and observed once.
  std::thread([&latency] { Span span("test.enabled", 5, &latency); }).join();
  EXPECT_EQ(latency.count(), before + 1);
  EXPECT_NE(dump_recorder().find("kind=span_end dom=0 name=test.enabled b=5"),
            std::string::npos);
}

TEST(Trace, SpanUnwoundByAnExceptionRecordsItsEndButNoLatency) {
  set_recorder_enabled(true);
  Histogram& latency =
      Registry::global().histogram("obs_test.throwing_span_us");
  const std::uint64_t before = latency.count();
  try {
    Span span("test.throwing", 9, &latency);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(latency.count(), before);
  EXPECT_NE(dump_recorder().find("kind=span_end dom=0 name=test.throwing b=9"),
            std::string::npos);
}

TEST(Trace, ExportSurvivesRingWrap) {
  set_recorder_enabled(true);
  // The ring capacity: the events setting when the first ring was made.
  const std::size_t cap = recorder_events_from_env();
  // A fresh thread owns a fresh ring: 4 * cap span events wrap it three
  // times, so the oldest surviving events include ends whose begins are
  // gone.
  std::thread([cap] {
    for (std::size_t i = 0; i < cap; ++i) {
      Span outer("test.wrap_outer", i);
      Span inner("test.wrap_inner", i);
    }
  }).join();
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_wrap_trace.json";
  ASSERT_TRUE(write_chrome_trace(path.string()));
  const std::string json = slurp_text(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(JsonChecker(json).valid());

  const std::vector<TraceEvent> events = parse_trace(json);
  expect_balanced_and_nested(events);
  std::size_t begins = 0;
  std::uint64_t tid = 0;
  for (const TraceEvent& e : events)
    if (e.name == "test.wrap_outer" && e.ph == "B") {
      ++begins;
      tid = e.tid;
    }
  // Only the newest quarter of the spans survived the wrap.
  EXPECT_GT(begins, 0u);
  EXPECT_LE(begins, cap / 4);

  const std::string ring = "ring=" + std::to_string(tid);
  const std::string lost = "overwritten=" + std::to_string(3 * cap);
  bool warned = false;
  for (const std::string& line : capture.lines())
    if (line.find("trace ring wrapped") != std::string::npos &&
        line.find(ring + " ") != std::string::npos &&
        line.find(lost) != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned) << "no wrap warning naming " << ring << " " << lost;
}

// --------------------------------------------------- zero-perturbation

const data::SyntheticCorpus& small_corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    // Matches runtime_test's end-to-end corpus: both label classes on the
    // front page, generated in well under a second.
    params.user_count = 40000;
    params.story_count = 400;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

// --------------------------------------------------------------- quantiles

TEST(HistogramQuantile, InterpolatesInsideTheCrossingBucket) {
  // 100 observations all in (1, 2]: rank q*100 interpolates linearly
  // across that bucket from its lower bound 1.
  const std::vector<double> bounds{1.0, 2.0, 4.0, 8.0};
  const std::vector<std::uint64_t> counts{0, 100, 0, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.99), 1.99);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 2.0);
}

TEST(HistogramQuantile, FirstBucketInterpolatesFromZero) {
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> counts{10, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 5.0);
}

TEST(HistogramQuantile, SpansBucketsAtTheCumulativeCrossing) {
  // 50 in (0,10], 50 in (10,20]: p75's rank 75 falls 25 observations into
  // the second bucket -> 10 + 10 * 25/50.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> counts{50, 50, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.75), 15.0);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastFiniteBound) {
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> counts{0, 0, 5};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.99), 2.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(
      histogram_quantile({1.0, 2.0}, {0, 0, 0}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);
}

TEST(HistogramQuantile, HistogramMethodMatchesFreeFunction) {
  Histogram& h =
      Registry::global().histogram("obs_test.quant_us", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99),
                   histogram_quantile(h.bounds(), h.bucket_counts(), 0.99));
}

TEST(Metrics, LatencyHistogramsDeriveP99GaugesInJson) {
  Registry& reg = Registry::global();
  Histogram& h = reg.histogram("obs_test.derived_us", {1.0, 2.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  reg.histogram("obs_test.not_latency", {1.0}).observe(0.5);
  const std::string json = reg.to_json();
  // *_us histograms with data derive a gated tail-latency gauge; non-latency
  // histograms do not.
  EXPECT_NE(json.find("\"obs_test.derived_us_p99\":1.99"), std::string::npos);
  EXPECT_EQ(json.find("\"obs_test.not_latency_p99\""), std::string::npos);
}

// --------------------------------------------------------- flight recorder

TEST(Recorder, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kMark), "mark");
  EXPECT_STREQ(event_kind_name(EventKind::kVoteApplied), "vote_applied");
  EXPECT_STREQ(event_kind_name(EventKind::kStoryRetired), "story_retired");
  EXPECT_STREQ(event_kind_name(static_cast<EventKind>(999)), "?");
}

TEST(Recorder, RingKeepsTheLastCapacityEventsInOrder) {
  set_recorder_enabled(true);
  // The ring capacity: the events setting when the first ring was made.
  const std::size_t cap = recorder_events_from_env();
  // A fresh thread gets a fresh ring, so this test owns every slot in it.
  // dom=777 marks our events among whatever other tests recorded.
  std::thread([cap] {
    for (std::uint64_t i = 0; i < 2 * cap; ++i)
      record_event(EventKind::kMark, 777, i);
  }).join();
  const std::string dump = dump_recorder();
  std::vector<std::uint64_t> seen;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("kind=mark dom=777 ") == std::string::npos) continue;
    const auto a_pos = line.find(" a=");
    ASSERT_NE(a_pos, std::string::npos) << line;
    seen.push_back(std::stoull(line.substr(a_pos + 3)));
  }
  // Wraparound: exactly the last `cap` events survive, oldest first.
  ASSERT_EQ(seen.size(), cap);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], cap + i) << "at position " << i;
}

TEST(Recorder, DisabledRecordingLeavesNoTrace) {
  set_recorder_enabled(false);
  std::thread([] {
    for (int i = 0; i < 100; ++i) record_event(EventKind::kMark, 778, i);
  }).join();
  set_recorder_enabled(true);
  EXPECT_EQ(dump_recorder().find("dom=778"), std::string::npos);
}

TEST(Recorder, ConcurrentWritersAndDumpersAreRaceFree) {
  // The seqlock contract under fire: writers flood their rings while other
  // threads dump. TSan proves the memory model; the asserts prove dumps
  // stay parseable (every surviving line is complete).
  set_recorder_enabled(true);
  constexpr int kWriters = 4;
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&go, &stop, w] {
      while (!go.load()) std::this_thread::yield();
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed))
        record_event(EventKind::kMark, 800 + static_cast<std::uint32_t>(w),
                     i++);
    });
  }
  go.store(true);
  for (int d = 0; d < 20; ++d) {
    const std::string dump = dump_recorder();
    std::istringstream lines(dump);
    std::string line;
    while (std::getline(lines, line)) {
      EXPECT_EQ(line.rfind("ring=", 0), 0u) << line;
      EXPECT_NE(line.find(" b="), std::string::npos) << line;
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

TEST(Recorder, WriteCrashReportIsCompleteAndParseable) {
  set_recorder_enabled(true);
  Registry::global().counter("obs_test.crash_marker").inc(41);
  record_event(EventKind::kMark, 779, 12345);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_report.txt";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  write_crash_report(fd, 0);
  ::close(fd);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string report = buf.str();
  EXPECT_NE(report.find("signal=0 name=none"), std::string::npos);
  EXPECT_NE(report.find("--- flight recorder ---"), std::string::npos);
  EXPECT_NE(report.find("kind=mark dom=779 a=12345"), std::string::npos);
  EXPECT_NE(report.find("--- metrics ---"), std::string::npos);
  EXPECT_NE(report.find("\"obs_test.crash_marker\":"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Recorder, CrashReportNamesOpenSpans) {
  set_recorder_enabled(true);
  const Span open("test.open", 7);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_open_span.txt";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  write_crash_report(fd, 0);
  ::close(fd);
  const std::string report = slurp_text(path);
  std::filesystem::remove(path);
  // A begin with the span's name and arg, and no end: the span is open.
  EXPECT_NE(report.find("kind=span_begin dom=0 name=test.open b=7\n"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("kind=span_end dom=0 name=test.open "),
            std::string::npos);
}

TEST(Recorder, Sigusr2DuringStreamReplayDumpsShardEventsAndMetrics) {
  // The acceptance scenario: a stream replay is interrupted with SIGUSR2
  // and the crash report must show per-shard flight-recorder events plus a
  // metrics snapshot — and the process keeps running.
  set_recorder_enabled(true);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_sigusr2.txt";
  install_crash_handlers(path.string());
  ASSERT_TRUE(crash_handlers_installed());

  const stream::EventStream es =
      stream::build_event_stream(small_corpus().corpus);
  stream::StreamEngine engine(es, small_corpus().corpus.network);
  engine.run_until(es.total_events() / 2);
  ASSERT_EQ(::raise(SIGUSR2), 0);
  engine.run_all();  // SIGUSR2 is dump-and-continue
  EXPECT_EQ(engine.events_applied(), es.total_events());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string report = buf.str();
  EXPECT_NE(report.find("signal=" + std::to_string(SIGUSR2) +
                        " name=SIGUSR2"),
            std::string::npos);
  EXPECT_NE(report.find("kind=vote_applied"), std::string::npos);
  EXPECT_NE(report.find(" dom="), std::string::npos);
  EXPECT_NE(report.find("\"counters\""), std::string::npos);
  EXPECT_NE(report.find("\"stream.votes_ingested\":"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- exporter

TEST(Prometheus, NamesSanitizeToTheMetricCharset) {
  EXPECT_EQ(prometheus_name("stream.votes_ingested"),
            "stream_votes_ingested");
  EXPECT_EQ(prometheus_name("a-b c"), "a_b_c");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
}

TEST(Prometheus, RendersCountersGaugesAndCumulativeHistograms) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("stream.votes_ingested", 42);
  snap.gauges.emplace_back("runtime.pool_utilization", 0.5);
  MetricsSnapshot::Hist h;
  h.name = "stream.ingest_story_us";
  h.bounds = {1.0, 2.0};
  h.counts = {3, 2, 1};  // per-bucket; exposition wants cumulative
  h.count = 6;
  h.sum = 9.5;
  snap.histograms.push_back(h);
  const std::string text = render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE digg_stream_votes_ingested_total counter\n"
                      "digg_stream_votes_ingested_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_runtime_pool_utilization 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_stream_ingest_story_us_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_stream_ingest_story_us_bucket{le=\"2\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_stream_ingest_story_us_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_stream_ingest_story_us_sum 9.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("digg_stream_ingest_story_us_count 6\n"),
            std::string::npos);
}

/// Opens a TCP connection to 127.0.0.1:`port`; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one GET on `fd` and reads until the server closes (or a read
/// times out), returning the raw response.
std::string scrape(int fd) {
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  const auto len = static_cast<ssize_t>(sizeof(req) - 1);
  if (::write(fd, req, sizeof(req) - 1) != len) return {};
  std::string resp;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
    resp.append(chunk, static_cast<std::size_t>(n));
  return resp;
}

TEST(Exporter, ServesTheRegistryOverHttp) {
  Registry::global().counter("obs_test.exporter_hits").inc(7);
  const std::uint16_t port = start_exporter(0);
  ASSERT_NE(port, 0) << "exporter failed to bind an ephemeral port";
  EXPECT_EQ(exporter_port(), port);

  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  const std::string resp = scrape(fd);
  ::close(fd);

  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("digg_obs_test_exporter_hits_total"),
            std::string::npos);
  stop_exporter();
  EXPECT_EQ(exporter_port(), 0);  // the bound port reads 0 once stopped
}

// A client that connects and sends nothing is dropped after one loop tick
// (and counted), so a scrape queued behind it still answers promptly.
TEST(Exporter, IdleClientDoesNotStallTheScrape) {
  const Counter& dropped = Registry::global().counter("obs.exporter_dropped");
  const std::uint64_t dropped_before = dropped.value();
  const std::uint16_t port = start_exporter(0);
  ASSERT_NE(port, 0) << "exporter failed to bind an ephemeral port";

  const int idle = connect_loopback(port);
  ASSERT_GE(idle, 0);
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  // Bounded reads: a stalled exporter fails this test instead of hanging it.
  timeval timeout{};
  timeout.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp = scrape(fd);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ::close(fd);
  ::close(idle);
  stop_exporter();

  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_LT(waited, std::chrono::seconds(1));
  EXPECT_GT(dropped.value(), dropped_before);
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, StalledTaskTripsTheCounterABeatenTaskDoesNot) {
  // Route the stall dump into a file (not the test's stderr) by pointing
  // the crash-report path at a temp file.
  const auto crash_path =
      std::filesystem::temp_directory_path() / "obs_test_watchdog.txt";
  install_crash_handlers(crash_path.string());
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  Counter& stalls = Registry::global().counter("obs.watchdog_stalls");
  const std::uint64_t before = stalls.value();
  {
    WatchdogTask stalled("obs_test.stalled", 0);  // already past deadline
    WatchdogTask healthy("obs_test.healthy", 60'000);
    ASSERT_TRUE(start_watchdog(10));
    for (int i = 0; i < 100 && stalls.value() == before; ++i) {
      healthy.beat();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop_watchdog();
  }
  EXPECT_GT(stalls.value(), before);
  bool warned_stalled = false, warned_healthy = false;
  for (const std::string& line : capture.lines()) {
    if (line.find("missed its heartbeat") == std::string::npos) continue;
    if (line.find("obs_test.stalled") != std::string::npos)
      warned_stalled = true;
    if (line.find("obs_test.healthy") != std::string::npos)
      warned_healthy = true;
  }
  EXPECT_TRUE(warned_stalled);
  EXPECT_FALSE(warned_healthy);
  // The stall dump reuses the crash-report writer with signal=0.
  std::ifstream in(crash_path.string() + ".stall");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("signal=0 name=none"), std::string::npos);
  std::filesystem::remove(crash_path.string() + ".stall");
}

// ------------------------------------------------------- hardware counters

TEST(PerfCounters, ReadsOrDegradesGracefully) {
  PerfCounters counters;
  counters.start();
  // Something measurable, kept opaque to the optimizer.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<unsigned>(i);
  const PerfReading r = counters.stop();
  if (counters.usable()) {
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc(), 0.0);
  } else {
    // No PMU: everything degrades to an invalid zero reading, no crash.
    EXPECT_FALSE(r.valid);
    EXPECT_DOUBLE_EQ(r.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(r.cache_miss_pct(), 0.0);
  }
}

// ----------------------------------------------------- env-var error paths

TEST(WarnIfUnwritable, UnwritablePathWarnsWritablePathDoesNot) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  const auto good =
      std::filesystem::temp_directory_path() / "obs_test_writable.json";
  EXPECT_TRUE(warn_if_unwritable("DIGG_METRICS", good.c_str()));
  EXPECT_TRUE(capture.lines().empty());
  EXPECT_FALSE(warn_if_unwritable("DIGG_METRICS",
                                  "/nonexistent-dir/sub/metrics.json"));
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].find("not writable"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("DIGG_METRICS"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("/nonexistent-dir/sub/metrics.json"),
            std::string::npos);
  std::filesystem::remove(good);
}

/// Sets one env var for a scope (nullptr unsets it) and restores the
/// previous value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(EnvUint, AcceptsPlainDecimalsInRangeAndWarnsOncePerVariable) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  // A fresh name per run: the once-per-variable state outlives the test.
  static int run = 0;
  const std::string name = "DIGG_OBS_TEST_ENV_UINT_" + std::to_string(run++);
  const char* const kVar = name.c_str();
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(env_uint(kVar, 1, 9, 7), 7u);
  }
  for (const char* ok : {"1", "9", "05"}) {
    ScopedEnv env(kVar, ok);
    EXPECT_EQ(env_uint(kVar, 1, 9, 7), std::strtoull(ok, nullptr, 10)) << ok;
  }
  EXPECT_TRUE(capture.lines().empty());
  for (const char* bad : {"", "abc", "5x", " 5", "+5", "-5", "0", "10",
                          "18446744073709551616"}) {
    ScopedEnv env(kVar, bad);
    EXPECT_EQ(env_uint(kVar, 1, 9, 7), 7u) << '"' << bad << '"';
  }
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].find(kVar), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("fallback=7"), std::string::npos);
}

// Every numeric variable, read the way its site reads it, with junk,
// negative, overflow and empty values: each keeps its default. Before
// env_uint, DIGG_SERVE_PORT=70000 bound port 4464, DIGG_METRICS_PORT=abc
// bound an ephemeral port and a watchdog interval of 2^32+1 ms was
// truncated to 1.
TEST(EnvUint, EveryNumericVariableFallsBackOnBadInput) {
  LogCapture capture;  // the fallback warnings are expected
  runtime::set_default_threads(0);
  const std::uint64_t hw = runtime::hardware_threads();
  std::uint64_t events_default = 0;
  {
    ScopedEnv env("DIGG_RECORDER_EVENTS", nullptr);
    events_default = recorder_events_from_env();
  }
  constexpr std::uint64_t kOff = 65536;  // metrics_port_from_env() nullopt
  auto serve_env = [] {
    serve::ServeParams params;
    serve::read_env(params);
    return params;
  };
  const std::map<std::string, std::function<std::uint64_t()>> read = {
      {"DIGG_SERVE_PORT", [&] { return serve_env().port; }},
      {"DIGG_CHECKPOINT_MS", [&] { return serve_env().checkpoint_ms; }},
      {"DIGG_THREADS", [] { return runtime::default_threads(); }},
      {"DIGG_RECORDER_EVENTS", [] { return recorder_events_from_env(); }},
      {"DIGG_WATCHDOG_MS", [] { return watchdog_ms_from_env(); }},
      {"DIGG_METRICS_PORT",
       [] {
         const auto port = metrics_port_from_env();
         return port ? std::uint64_t{*port} : kOff;
       }},
  };
  struct Row {
    const char* var;
    const char* value;
    std::uint64_t expect;
  };
  const Row rows[] = {
      {"DIGG_THREADS", "3", 3},
      {"DIGG_THREADS", "garbage", hw},
      {"DIGG_THREADS", "-2", hw},
      {"DIGG_THREADS", "0", hw},
      {"DIGG_THREADS", "1025", hw},
      {"DIGG_THREADS", "99999999999999999999", hw},
      {"DIGG_THREADS", "", hw},
      {"DIGG_RECORDER_EVENTS", "1024", 1024},
      {"DIGG_RECORDER_EVENTS", "lots", events_default},
      {"DIGG_RECORDER_EVENTS", "-64", events_default},
      {"DIGG_RECORDER_EVENTS", "15", events_default},
      {"DIGG_RECORDER_EVENTS", "65537", events_default},
      {"DIGG_RECORDER_EVENTS", "", events_default},
      {"DIGG_WATCHDOG_MS", "250", 250},
      {"DIGG_WATCHDOG_MS", "250ms", 0},
      {"DIGG_WATCHDOG_MS", "-1", 0},
      {"DIGG_WATCHDOG_MS", "4294967297", 0},
      {"DIGG_WATCHDOG_MS", "", 0},
      {"DIGG_METRICS_PORT", "9900", 9900},
      {"DIGG_METRICS_PORT", "0", 0},
      {"DIGG_METRICS_PORT", "abc", kOff},
      {"DIGG_METRICS_PORT", "-1", kOff},
      {"DIGG_METRICS_PORT", "70000", kOff},
      {"DIGG_METRICS_PORT", "", kOff},
      {"DIGG_SERVE_PORT", "4464", 4464},
      {"DIGG_SERVE_PORT", "70000", 0},
      {"DIGG_SERVE_PORT", "-1", 0},
      {"DIGG_SERVE_PORT", "44x", 0},
      {"DIGG_SERVE_PORT", "", 0},
      {"DIGG_CHECKPOINT_MS", "500", 500},
      {"DIGG_CHECKPOINT_MS", "4294967296", 0},
      {"DIGG_CHECKPOINT_MS", "-5", 0},
      {"DIGG_CHECKPOINT_MS", "5ms", 0},
      {"DIGG_CHECKPOINT_MS", "", 0},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.var) + "=\"" + row.value + "\"");
    ScopedEnv env(row.var, row.value);
    EXPECT_EQ(read.at(row.var)(), row.expect);
  }
}

TEST(EnvChoice, AcceptsAllowedWordsAndWarnsOncePerVariable) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  // A fresh name per run: the once-per-variable state outlives the test.
  static int run = 0;
  const std::string name =
      "DIGG_OBS_TEST_ENV_CHOICE_" + std::to_string(run++);
  const char* const kVar = name.c_str();
  auto read = [&] {
    return std::string(env_choice(kVar, {"on", "off"}, "on"));
  };
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(read(), "on");
  }
  for (const char* ok : {"on", "off"}) {
    ScopedEnv env(kVar, ok);
    EXPECT_EQ(read(), ok);
  }
  EXPECT_TRUE(capture.lines().empty());
  for (const char* bad : {"", "OFF", "of", " off", "offf", "0"}) {
    ScopedEnv env(kVar, bad);
    EXPECT_EQ(read(), "on") << '"' << bad << '"';
  }
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].find(kVar), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("allowed=on|off"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("fallback=on"), std::string::npos);
}

// Both string variables, read the way their sites read them: an empty or
// misspelt value keeps the default and warns once. Before env_choice,
// DIGG_LOG_LEVEL=warnings ran at info without a word.
TEST(EnvChoice, StringVariablesFallBackOnBadInputAndWarn) {
  LogCapture capture;
  set_log_level(LogLevel::kWarn);
  const std::map<std::string, std::function<int()>> read = {
      {"DIGG_LOG_LEVEL",
       [] { return static_cast<int>(log_level_from_env()); }},
      {"DIGG_RECORDER", [] { return recorder_enabled_from_env() ? 1 : 0; }},
  };
  constexpr int kInfo = static_cast<int>(LogLevel::kInfo);
  struct Row {
    const char* var;
    const char* value;
    int expect;
  };
  const Row rows[] = {
      {"DIGG_LOG_LEVEL", "warn", static_cast<int>(LogLevel::kWarn)},
      {"DIGG_LOG_LEVEL", "off", static_cast<int>(LogLevel::kOff)},
      {"DIGG_LOG_LEVEL", "trace", static_cast<int>(LogLevel::kTrace)},
      {"DIGG_LOG_LEVEL", "warnings", kInfo},
      {"DIGG_LOG_LEVEL", "WARN", kInfo},
      {"DIGG_LOG_LEVEL", "", kInfo},
      {"DIGG_RECORDER", "off", 0},
      {"DIGG_RECORDER", "0", 0},
      {"DIGG_RECORDER", "on", 1},
      {"DIGG_RECORDER", "1", 1},
      {"DIGG_RECORDER", "Off", 1},
      {"DIGG_RECORDER", "disabled", 1},
      {"DIGG_RECORDER", "", 1},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.var) + "=\"" + row.value + "\"");
    ScopedEnv env(row.var, row.value);
    EXPECT_EQ(read.at(row.var)(), row.expect);
  }
  // One warning per variable per process, so only the first run sees them.
  static bool first_run = true;
  if (!std::exchange(first_run, false)) return;
  for (const auto& [var, reader] : read) {
    SCOPED_TRACE(var);
    EXPECT_EQ(std::ranges::count_if(capture.lines(),
                                    [&](const std::string& line) {
                                      return line.find("var=" + var) !=
                                             std::string::npos;
                                    }),
              1);
  }
}

TEST(LogFile, UnopenablePathReportsTheStderrFallback) {
  std::string error;
  std::FILE* f = open_log_file("/nonexistent-dir/sub/log.txt", &error);
  EXPECT_EQ(f, nullptr);
  EXPECT_NE(error.find("DIGG_LOG_FILE=/nonexistent-dir/sub/log.txt"),
            std::string::npos);
  EXPECT_NE(error.find("logging to stderr"), std::string::npos);

  const auto good =
      std::filesystem::temp_directory_path() / "obs_test_log.txt";
  std::FILE* ok = open_log_file(good.c_str(), &error);
  ASSERT_NE(ok, nullptr);
  std::fclose(ok);
  std::filesystem::remove(good);
}

TEST(ZeroPerturbation, Fig5IdenticalWithRecorderExporterAndWatchdogOn) {
  // Figures stay bit-identical with every telemetry surface on — the flight
  // recorder with its spans, the trace export, the Prometheus exporter and
  // the watchdog — and with all of it off.
  auto run = [&] {
    stats::Rng rng(7);
    core::Fig5Params params;
    params.folds = 5;
    return core::fig5_prediction(small_corpus().corpus, params, rng);
  };
  set_recorder_enabled(false);
  const core::Fig5Result off = run();

  set_recorder_enabled(true);
  const std::uint16_t port = start_exporter(0);
  start_watchdog(20);
  const core::Fig5Result on = run();
  stop_watchdog();
  stop_exporter();
  EXPECT_NE(port, 0);
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_fig5_trace.json";
  ASSERT_TRUE(write_chrome_trace(path.string()));
  EXPECT_NE(slurp_text(path).find("\"name\":\"core.fig5_prediction\""),
            std::string::npos);
  std::filesystem::remove(path);

  EXPECT_EQ(off.cross_validation.pooled.tp, on.cross_validation.pooled.tp);
  EXPECT_EQ(off.cross_validation.pooled.tn, on.cross_validation.pooled.tn);
  EXPECT_EQ(off.cross_validation.pooled.fp, on.cross_validation.pooled.fp);
  EXPECT_EQ(off.cross_validation.pooled.fn, on.cross_validation.pooled.fn);
  EXPECT_EQ(off.holdout.tp, on.holdout.tp);
  EXPECT_EQ(off.holdout.tn, on.holdout.tn);
  EXPECT_EQ(off.holdout.fp, on.holdout.fp);
  EXPECT_EQ(off.holdout.fn, on.holdout.fn);
  EXPECT_EQ(off.holdout_stories, on.holdout_stories);
  EXPECT_EQ(off.predictor.tree().render(), on.predictor.tree().render());
}

TEST(ZeroPerturbation, LogLevelDoesNotChangeResults) {
  LogCapture capture;
  set_log_level(LogLevel::kTrace);
  stats::Rng rng_loud(3);
  const auto loud =
      data::generate_corpus(data::SyntheticParams{}, rng_loud);
  set_log_level(LogLevel::kOff);
  stats::Rng rng_quiet(3);
  const auto quiet =
      data::generate_corpus(data::SyntheticParams{}, rng_quiet);
  EXPECT_EQ(loud.corpus.story_count(), quiet.corpus.story_count());
  EXPECT_EQ(loud.corpus.front_page.size(), quiet.corpus.front_page.size());
  EXPECT_EQ(loud.corpus.upcoming.size(), quiet.corpus.upcoming.size());
}

}  // namespace
}  // namespace digg::obs

// Tests for the observability layer (src/obs): logger level filtering and
// field formatting, metrics registry correctness under concurrent updates
// (run under -DDIGG_SANITIZE=thread to prove the hot path is race-free),
// trace span nesting/ordering, flight-recorder seqlock semantics
// (wraparound, concurrent writers vs dumpers), crash-report dumps
// (SIGUSR2 mid-replay), percentile derivation, the Prometheus exporter,
// the watchdog, hardware counters, and the zero-perturbation contract —
// the fig5 pipeline must be bit-identical with every telemetry surface on.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/experiment.h"
#include "src/data/synthetic.h"
#include "src/obs/exporter.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/perf.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/runtime/parallel.h"
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

TEST(Trace, DisabledByDefaultAndSpansAreFree) {
  if (trace_enabled()) GTEST_SKIP() << "DIGG_TRACE set in environment";
  const std::size_t before = trace_event_count();
  {
    Span span("noop", "test");
  }
  EXPECT_EQ(trace_event_count(), before);
}

TEST(Trace, SpansNestAndOrderInOutput) {
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_trace.json";
  trace_start(path.string());
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
    }
    {
      Span inner2("inner2", "test");
    }
  }
  EXPECT_EQ(trace_event_count(), 3u);
  trace_stop();
  EXPECT_FALSE(trace_enabled());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Complete events are recorded at destruction: inner, inner2, outer.
  const auto inner_pos = json.find("\"name\":\"inner\"");
  const auto inner2_pos = json.find("\"name\":\"inner2\"");
  const auto outer_pos = json.find("\"name\":\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(inner2_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, inner2_pos);
  EXPECT_LT(inner2_pos, outer_pos);
  std::filesystem::remove(path);
}

TEST(Trace, RuntimeChunkSpansAppearInTrace) {
  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_runtime_trace.json";
  trace_start(path.string());
  runtime::ParallelOptions opts;
  opts.threads = 4;
  std::atomic<int> calls{0};
  runtime::parallel_for(
      100, [&](std::size_t) { calls.fetch_add(1); }, opts);
  trace_stop();
  EXPECT_EQ(calls.load(), 100);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"name\":\"chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"runtime\""), std::string::npos);
  std::filesystem::remove(path);
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

TEST(ZeroPerturbation, Fig5PredictionIdenticalWithTracingEnabled) {
  auto run = [&] {
    stats::Rng rng(7);
    core::Fig5Params params;
    params.folds = 5;
    return core::fig5_prediction(small_corpus().corpus, params, rng);
  };
  const core::Fig5Result off = run();

  const auto path =
      std::filesystem::temp_directory_path() / "obs_test_fig5_trace.json";
  trace_start(path.string());
  const core::Fig5Result on = run();
  trace_stop();
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
  const std::size_t cap = recorder_ring_capacity();
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

TEST(Prometheus, LabelValuesEscapeBackslashQuoteNewline) {
  EXPECT_EQ(prometheus_label_escape("plain"), "plain");
  EXPECT_EQ(prometheus_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_label_escape("two\nlines"), "two\\nlines");
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

TEST(Exporter, ServesTheRegistryOverHttp) {
  Registry::global().counter("obs_test.exporter_hits").inc(7);
  const std::uint16_t port = start_exporter(0);
  ASSERT_NE(port, 0) << "exporter failed to bind an ephemeral port";
  EXPECT_TRUE(exporter_running());
  EXPECT_EQ(exporter_port(), port);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, req, sizeof(req) - 1),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string resp;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
    resp.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("digg_obs_test_exporter_hits_total"),
            std::string::npos);
  stop_exporter();
  EXPECT_FALSE(exporter_running());
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
  EXPECT_FALSE(watchdog_running());
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
  if (perf_counters_supported()) {
    ASSERT_TRUE(counters.usable());
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc(), 0.0);
  } else {
    // No PMU: everything degrades to an invalid zero reading, no crash.
    EXPECT_FALSE(counters.usable());
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
  // The PR 7 contract: figures stay bit-identical with ALL of telemetry v2
  // enabled — flight recorder, Prometheus exporter, and watchdog.
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
  set_recorder_enabled(true);
  EXPECT_NE(port, 0);

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

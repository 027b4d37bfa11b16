// Differential property tests for the SIMD kernel layer (src/simd): every
// vectorized table must compute bit-identical results to the scalar
// reference on randomized inputs that cover the kernels' regime switches —
// dense block-compare vs skewed bounded-sweep set difference, ragged
// sub-vector tails, unaligned bases, word-boundary bitmap ids — plus the
// two consumers whose outputs the repo's figures depend on: HybridSet's
// union/staging/tombstone/promotion state machine and FlatTree's batched
// C4.5 descent (NaN rows included). The final test pins the end-to-end
// contract: a full StreamEngine replay is bit-identical between the scalar
// and native kernel tables at 1 and 4 threads.

#include "src/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/digg/hybrid_set.h"
#include "src/ml/c45.h"
#include "src/ml/flat_tree.h"
#include "src/runtime/thread_pool.h"
#include "src/stats/rng.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace digg::simd {
namespace {

/// Pins the dispatch table for a scope; restores best-supported on exit so
/// test order can't leak a forced level.
class LevelGuard {
 public:
  explicit LevelGuard(Level level) { force_level(level); }
  ~LevelGuard() { force_level(best_supported()); }
};

/// Every level with a real table on this host, scalar first. On hosts
/// without AVX2 the list degenerates to {kScalar} and the differential
/// tests reduce to scalar-vs-scalar (trivially green, by design: the suite
/// must pass on any target).
std::vector<Level> levels_under_test() {
  std::vector<Level> levels = {Level::kScalar};
  if (best_supported() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

std::vector<std::uint32_t> sorted_unique(stats::Rng& rng, std::size_t len,
                                         std::uint32_t lo, std::uint32_t hi) {
  std::set<std::uint32_t> s;
  while (s.size() < len && s.size() <= static_cast<std::size_t>(hi - lo))
    s.insert(static_cast<std::uint32_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi))));
  return {s.begin(), s.end()};
}

// ----------------------------------------------------------- set_diff ----

TEST(SimdSetDiff, MatchesScalarAcrossShapesAndLevels) {
  stats::Rng rng(20080521);
  for (int trial = 0; trial < 300; ++trial) {
    // Cycle through the regimes: dense (block compare), skewed (bounded
    // sweep -> gallop), tiny spans, empty main, span past main's end.
    const int shape = trial % 5;
    std::size_t main_n = 0;
    std::size_t span_n = 0;
    switch (shape) {
      case 0:  // dense: comparable sizes
        main_n = static_cast<std::size_t>(rng.uniform_int(16, 400));
        span_n = static_cast<std::size_t>(rng.uniform_int(16, 400));
        break;
      case 1:  // skewed: main dwarfs span
        main_n = static_cast<std::size_t>(rng.uniform_int(512, 3000));
        span_n = static_cast<std::size_t>(rng.uniform_int(1, 40));
        break;
      case 2:  // tiny span, tiny main (ragged tails everywhere)
        main_n = static_cast<std::size_t>(rng.uniform_int(0, 12));
        span_n = static_cast<std::size_t>(rng.uniform_int(0, 12));
        break;
      case 3:  // extreme skew: exercises the sweep's gallop escape
        main_n = static_cast<std::size_t>(rng.uniform_int(2000, 3500));
        span_n = static_cast<std::size_t>(rng.uniform_int(1, 3));
        break;
      default:  // moderate, odd (unaligned) sizes
        main_n = static_cast<std::size_t>(rng.uniform_int(31, 777));
        span_n = static_cast<std::size_t>(rng.uniform_int(17, 333));
        break;
    }
    const std::uint32_t universe =
        static_cast<std::uint32_t>(rng.uniform_int(4000, 40000));
    std::vector<std::uint32_t> main_v =
        sorted_unique(rng, main_n, 0, universe);
    // Half the spans draw from a shifted range so keys land before/after
    // all of main, not just interleaved.
    const std::uint32_t span_lo = trial % 2 ? universe / 2 : 0;
    std::vector<std::uint32_t> span_v = sorted_unique(
        rng, span_n, span_lo, universe + universe / 2);
    // Seed genuine overlap (random draws over a big universe rarely
    // collide): copy some of main into the span.
    for (std::size_t i = 0; i < main_v.size() && i < span_v.size(); i += 3)
      span_v[i] = main_v[i];
    std::sort(span_v.begin(), span_v.end());
    span_v.erase(std::unique(span_v.begin(), span_v.end()), span_v.end());

    // Unaligned bases: both arrays offset one element from the vector's
    // (aligned) allocation.
    std::vector<std::uint32_t> main_buf(main_v.size() + 1, 0);
    std::copy(main_v.begin(), main_v.end(), main_buf.begin() + 1);
    std::vector<std::uint32_t> span_buf(span_v.size() + 1, 0);
    std::copy(span_v.begin(), span_v.end(), span_buf.begin() + 1);
    const std::uint32_t* main_p = main_buf.data() + 1;
    const std::uint32_t* span_p = span_buf.data() + 1;

    std::vector<std::uint32_t> ref_out(span_v.size() + kPackSlack);
    std::vector<std::uint32_t> ref_pos(span_v.size() + kPackSlack);
    const std::size_t ref_n = detail::scalar_set_diff_u32(
        span_p, span_v.size(), main_p, main_v.size(), ref_out.data(),
        ref_pos.data());

    // The scalar reference itself must agree with std::set_difference and
    // std::lower_bound — anchor the whole differential chain to the STL.
    std::vector<std::uint32_t> stl_out;
    std::set_difference(span_v.begin(), span_v.end(), main_v.begin(),
                        main_v.end(), std::back_inserter(stl_out));
    ASSERT_EQ(ref_n, stl_out.size()) << "trial " << trial;
    for (std::size_t i = 0; i < ref_n; ++i) {
      ASSERT_EQ(ref_out[i], stl_out[i]) << "trial " << trial;
      const auto lb =
          std::lower_bound(main_v.begin(), main_v.end(), ref_out[i]);
      ASSERT_EQ(ref_pos[i],
                static_cast<std::uint32_t>(lb - main_v.begin()))
          << "trial " << trial << " candidate " << i;
    }

    for (const Level level : levels_under_test()) {
      const KernelTable& kt = kernels_for(level);
      std::vector<std::uint32_t> out(span_v.size() + kPackSlack, 0xDEADu);
      std::vector<std::uint32_t> pos(span_v.size() + kPackSlack, 0xDEADu);
      const std::size_t n = kt.set_diff_u32(span_p, span_v.size(), main_p,
                                            main_v.size(), out.data(),
                                            pos.data());
      ASSERT_EQ(n, ref_n) << "trial " << trial << " level "
                          << level_name(level);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], ref_out[i])
            << "trial " << trial << " level " << level_name(level);
        ASSERT_EQ(pos[i], ref_pos[i])
            << "trial " << trial << " level " << level_name(level);
      }
    }
  }
}

// ------------------------------------------------------ bitmap kernels ---

TEST(SimdBitmap, MissingAndSetMatchScalarAcrossLevels) {
  stats::Rng rng(773);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t universe =
        static_cast<std::uint32_t>(rng.uniform_int(64, 8192));
    const std::size_t n_words = (universe + 63) / 64;
    std::vector<std::uint64_t> words(n_words);
    for (std::uint64_t& w : words)
      w = static_cast<std::uint64_t>(rng.uniform_int(
              0, std::numeric_limits<std::int64_t>::max())) ^
          (static_cast<std::uint64_t>(
               rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()))
           << 1);
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<std::uint32_t> ids =
        sorted_unique(rng, len, 0, universe - 1);
    // Force word-boundary ids into some trials: bit 0, a 63/64 straddle,
    // and the last representable id.
    if (trial % 4 == 0 && universe > 130) {
      ids.insert(ids.end(), {0u, 63u, 64u, universe - 1});
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }

    std::vector<std::uint32_t> ref_missing(ids.size() + kPackSlack);
    const std::size_t ref_n = detail::scalar_bitmap_missing_u32(
        words.data(), ids.data(), ids.size(), ref_missing.data());
    std::vector<std::uint64_t> ref_words = words;
    const std::size_t ref_newly = detail::scalar_bitmap_set_u32(
        ref_words.data(), ids.data(), ids.size());

    for (const Level level : levels_under_test()) {
      const KernelTable& kt = kernels_for(level);
      std::vector<std::uint32_t> missing(ids.size() + kPackSlack, 0xDEADu);
      const std::size_t n = kt.bitmap_missing_u32(
          words.data(), ids.data(), ids.size(), missing.data());
      ASSERT_EQ(n, ref_n) << "trial " << trial << " level "
                          << level_name(level);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(missing[i], ref_missing[i])
            << "trial " << trial << " level " << level_name(level);

      std::vector<std::uint64_t> w2 = words;
      const std::size_t newly =
          kt.bitmap_set_u32(w2.data(), ids.data(), ids.size());
      ASSERT_EQ(newly, ref_newly)
          << "trial " << trial << " level " << level_name(level);
      ASSERT_EQ(w2, ref_words)
          << "trial " << trial << " level " << level_name(level);
    }
  }
}

// ------------------------------------------------- C4.5 batched descent --

TEST(SimdC45, FlatTreeMatchesPointerWalkIncludingNaN) {
  stats::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    // Train a real tree on noisy random data so depths and shapes vary.
    const std::size_t n_attrs =
        static_cast<std::size_t>(rng.uniform_int(2, 5));
    std::vector<ml::Attribute> attrs;
    for (std::size_t a = 0; a < n_attrs; ++a)
      attrs.push_back({"a" + std::to_string(a),
                       ml::AttributeKind::kNumeric,
                       {}});
    ml::Dataset data(attrs, {"no", "yes"});
    for (int i = 0; i < 200; ++i) {
      std::vector<double> row(n_attrs);
      double score = 0.0;
      for (double& v : row) {
        v = rng.uniform(0.0, 10.0);
        score += v;
      }
      const bool label =
          score > 5.0 * static_cast<double>(n_attrs) ||
          rng.uniform(0.0, 1.0) < 0.1;
      data.add(row, label ? 1 : 0);
    }
    const ml::DecisionTree tree = ml::DecisionTree::train(data);
    const ml::FlatTree flat(tree);
    ASSERT_TRUE(flat.valid()) << "numeric tree must compile";

    // Batch sizes off the 4-row vector width, rows with NaN in every
    // attribute position.
    const std::size_t n_rows =
        static_cast<std::size_t>(rng.uniform_int(1, 101));
    std::vector<double> rows(n_rows * n_attrs);
    for (std::size_t r = 0; r < n_rows; ++r)
      for (std::size_t a = 0; a < n_attrs; ++a)
        rows[r * n_attrs + a] =
            rng.uniform(0.0, 1.0) < 0.15
                ? std::numeric_limits<double>::quiet_NaN()
                : rng.uniform(-5.0, 15.0);

    std::vector<std::int32_t> want(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::vector<double> row(rows.begin() + r * n_attrs,
                                    rows.begin() + (r + 1) * n_attrs);
      want[r] = static_cast<std::int32_t>(tree.predict(row));
    }

    for (const Level level : levels_under_test()) {
      LevelGuard guard(level);
      std::vector<std::int32_t> got(n_rows, -1);
      flat.predict_classes(rows.data(), n_rows, n_attrs, got.data());
      ASSERT_EQ(got, want) << "trial " << trial << " level "
                           << level_name(level);
    }
  }
}

// -------------------------------------------- HybridSet state machine ----

// Replays one randomized op script (bulk unions with an accept filter,
// staged inserts, tombstoning erases, promotion crossings) at a pinned
// kernel level; returns every observable: on_new sequences, sizes, and
// content snapshots.
struct SetTrace {
  std::vector<std::uint32_t> on_new;
  std::vector<std::size_t> sizes;
  std::vector<std::vector<std::uint32_t>> snapshots;
};

SetTrace run_set_script(Level level, std::uint64_t seed) {
  LevelGuard guard(level);
  stats::Rng rng(seed);
  constexpr std::size_t kUniverse = 4096;  // threshold 128: promotes fast
  platform::HybridSet set(kUniverse);
  SetTrace trace;
  for (int op = 0; op < 400; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5) {
      const std::size_t len =
          static_cast<std::size_t>(rng.uniform_int(0, 200));
      const std::vector<std::uint32_t> span = [&] {
        std::set<std::uint32_t> s;
        while (s.size() < len)
          s.insert(static_cast<std::uint32_t>(
              rng.uniform_int(0, kUniverse - 1)));
        return std::vector<std::uint32_t>(s.begin(), s.end());
      }();
      set.union_span(
          span, [](std::uint32_t id) { return id % 7 != 0; },
          [&](std::uint32_t id) { trace.on_new.push_back(id); });
    } else if (kind < 7) {
      set.insert(
          static_cast<std::uint32_t>(rng.uniform_int(0, kUniverse - 1)));
    } else if (kind < 9) {
      set.erase(
          static_cast<std::uint32_t>(rng.uniform_int(0, kUniverse - 1)));
    } else {
      trace.snapshots.push_back(set.to_vector());
      set.reset(kUniverse);
    }
    trace.sizes.push_back(set.size());
  }
  trace.snapshots.push_back(set.to_vector());
  return trace;
}

TEST(SimdHybridSet, ScriptIsBitIdenticalAcrossLevels) {
  for (std::uint64_t seed : {1ull, 99ull, 20080521ull}) {
    const SetTrace want = run_set_script(Level::kScalar, seed);
    EXPECT_FALSE(want.on_new.empty());
    EXPECT_TRUE(std::any_of(
        want.sizes.begin(), want.sizes.end(),
        [](std::size_t s) {
          return s >= platform::HybridSet::promote_threshold(4096);
        }))
        << "script must cross promotion to cover the bitmap kernels";
    for (const Level level : levels_under_test()) {
      const SetTrace got = run_set_script(level, seed);
      ASSERT_EQ(got.on_new, want.on_new)
          << "seed " << seed << " level " << level_name(level);
      ASSERT_EQ(got.sizes, want.sizes)
          << "seed " << seed << " level " << level_name(level);
      ASSERT_EQ(got.snapshots, want.snapshots)
          << "seed " << seed << " level " << level_name(level);
    }
  }
}

// ------------------------------------------ end-to-end figure identity ---

class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned threads) {
    runtime::set_default_threads(threads);
  }
  ~ThreadGuard() { runtime::set_default_threads(0); }
};

void expect_same_outcome(const stream::StoryOutcome& a,
                         const stream::StoryOutcome& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.submitter, b.submitter);
  EXPECT_EQ(a.cascade, b.cascade);
  EXPECT_EQ(a.influence, b.influence);
  EXPECT_EQ(a.fans1, b.fans1);
  EXPECT_EQ(a.final_votes, b.final_votes);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.predicted_interesting, b.predicted_interesting);
  EXPECT_EQ(a.bayes_interesting, b.bayes_interesting);
  EXPECT_EQ(a.bayes_expected_final, b.bayes_expected_final);
  EXPECT_EQ(a.promoted_time, b.promoted_time);
}

TEST(SimdFigureIdentity, ReplayBitIdenticalScalarVsNativeAcrossThreads) {
  stats::Rng rng(42);
  data::SyntheticParams params;
  params.user_count = 20000;
  params.story_count = 200;
  const data::SyntheticCorpus sc = data::generate_corpus(params, rng);
  const stream::EventStream es = stream::build_event_stream(sc.corpus);
  // A trained predictor routes every story through the batched C4.5 v10
  // hook, so the tree kernels are part of the identity check too.
  const std::vector<core::StoryFeatures> feats =
      core::extract_features(sc.corpus.front_page, sc.corpus.network);
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(feats);
  stream::StreamParams sp;
  sp.predictor = &predictor;

  auto replay = [&](Level level, unsigned threads) {
    LevelGuard kernel_guard(level);
    ThreadGuard thread_guard(threads);
    stream::StreamEngine engine(es, sc.corpus.network, sp);
    engine.run_all();
    return engine.result();
  };

  const stream::StreamResult want = replay(Level::kScalar, 1);
  for (const Level level : {Level::kScalar, best_supported()}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("level ") + level_name(level) + " threads " +
                   std::to_string(threads));
      const stream::StreamResult got = replay(level, threads);
      EXPECT_EQ(got.events_applied, want.events_applied);
      ASSERT_EQ(got.stories.size(), want.stories.size());
      for (std::size_t i = 0; i < got.stories.size(); ++i) {
        SCOPED_TRACE("story slot " + std::to_string(i));
        expect_same_outcome(got.stories[i], want.stories[i]);
      }
    }
  }
}

}  // namespace
}  // namespace digg::simd

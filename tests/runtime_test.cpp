#include "src/runtime/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/data/synthetic.h"
#include "src/stats/bootstrap.h"

namespace digg::runtime {
namespace {

/// Pins the default thread count for one scope, restoring resolution to
/// DIGG_THREADS / hardware on exit.
class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned threads) { set_default_threads(threads); }
  ~ThreadGuard() { set_default_threads(0); }
};

TEST(ThreadConfig, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadConfig, SetDefaultThreadsOverrides) {
  ThreadGuard guard(3);
  EXPECT_EQ(default_threads(), 3u);
}

TEST(ThreadConfig, EnvVariableRespected) {
  set_default_threads(0);
  ASSERT_EQ(::setenv("DIGG_THREADS", "5", 1), 0);
  EXPECT_EQ(default_threads(), 5u);
  ASSERT_EQ(::setenv("DIGG_THREADS", "garbage", 1), 0);
  EXPECT_EQ(default_threads(), hardware_threads());
  ASSERT_EQ(::unsetenv("DIGG_THREADS"), 0);
  EXPECT_EQ(default_threads(), hardware_threads());
}

TEST(ThreadConfig, OverrideBeatsEnv) {
  ASSERT_EQ(::setenv("DIGG_THREADS", "5", 1), 0);
  {
    ThreadGuard guard(2);
    EXPECT_EQ(default_threads(), 2u);
  }
  EXPECT_EQ(default_threads(), 5u);
  ASSERT_EQ(::unsetenv("DIGG_THREADS"), 0);
}

TEST(ChunkLayout, CoversIndexSpaceDisjointly) {
  for (const std::size_t n : {0u, 1u, 7u, 256u, 1000u}) {
    for (const std::size_t grain : {0u, 1u, 3u, 64u, 5000u}) {
      const std::size_t chunks = detail::chunk_count_for(n, grain);
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = detail::chunk_bounds(n, chunks, c);
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LE(begin, end);
        expect_begin = end;
      }
      if (chunks > 0) {
        EXPECT_EQ(expect_begin, n);
      }
      if (n == 0) {
        EXPECT_EQ(chunks, 0u);
      }
    }
  }
}

TEST(ChunkLayout, IndependentOfThreadCount) {
  // The layout is a pure function of (n, grain); pinning different thread
  // counts must not change it.
  set_default_threads(4);
  const std::size_t a = detail::chunk_count_for(1000, 0);
  set_default_threads(1);
  const std::size_t b = detail::chunk_count_for(1000, 0);
  set_default_threads(0);
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadGuard guard(8);
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForRanges, RangesAreDisjointAndComplete) {
  ThreadGuard guard(4);
  const std::size_t n = 999;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i)
      visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelMap, ResultsLandByIndex) {
  ThreadGuard guard(8);
  const std::size_t n = 4096;
  const std::vector<std::size_t> out =
      parallel_map<std::size_t>(n, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, MoveOnlyResults) {
  ThreadGuard guard(4);
  const auto out = parallel_map<std::unique_ptr<int>>(
      100, [](std::size_t i) { return std::make_unique<int>(int(i)); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(*out[i], static_cast<int>(i));
}

TEST(ParallelForOrdered, ConsumesEveryIndexInOrder) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadGuard guard(threads);
    std::vector<std::size_t> consumed;
    parallel_for_ordered<std::unique_ptr<std::size_t>>(
        1000, 16,
        [](std::size_t i) {
          // Uneven work so later indices often finish first.
          volatile std::size_t spin = 0;
          for (std::size_t k = 0; k < (i * 7919) % 5000; ++k) spin = spin + k;
          return std::make_unique<std::size_t>(i * 3);
        },
        [&](std::size_t i, std::unique_ptr<std::size_t>&& value) {
          EXPECT_EQ(*value, i * 3);
          consumed.push_back(i);
        },
        {.grain = 1});
    ASSERT_EQ(consumed.size(), 1000u) << threads;
    for (std::size_t i = 0; i < consumed.size(); ++i)
      EXPECT_EQ(consumed[i], i) << threads;
  }
}

TEST(ParallelForOrdered, WindowBoundsHeldResults) {
  ThreadGuard guard(4);
  constexpr std::size_t kWindow = 3;
  std::atomic<std::size_t> held{0};
  std::atomic<std::size_t> max_held{0};
  parallel_for_ordered<std::size_t>(
      400, kWindow,
      [&](std::size_t i) {
        const std::size_t now = ++held;
        std::size_t seen = max_held.load();
        while (now > seen && !max_held.compare_exchange_weak(seen, now)) {
        }
        return i;
      },
      [&](std::size_t, std::size_t&&) { --held; }, {.grain = 1});
  EXPECT_EQ(held.load(), 0u);
  EXPECT_LE(max_held.load(), kWindow);
}

TEST(ParallelForOrdered, ProduceFailureStopsConsumption) {
  ThreadGuard guard(4);
  std::vector<std::size_t> consumed;
  try {
    parallel_for_ordered<std::size_t>(
        200, 4,
        [](std::size_t i) {
          if (i == 37) throw std::runtime_error("37");
          return i;
        },
        [&](std::size_t i, std::size_t&&) { consumed.push_back(i); },
        {.grain = 1});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "37");
  }
  ASSERT_LE(consumed.size(), 37u);
  for (std::size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

TEST(ParallelForOrdered, ConsumeFailurePropagates) {
  ThreadGuard guard(4);
  std::size_t last = 0;
  EXPECT_THROW(parallel_for_ordered<std::size_t>(
                   200, 8, [](std::size_t i) { return i; },
                   [&](std::size_t i, std::size_t&&) {
                     last = i;
                     if (i == 10) throw std::logic_error("stop");
                   },
                   {.grain = 1}),
               std::logic_error);
  EXPECT_EQ(last, 10u);
}

TEST(Exceptions, LowestFailingChunkWins) {
  ThreadGuard guard(8);
  // Default layout maps each of the 100 indices to its own chunk, so the
  // lowest failing chunk is the lowest failing index.
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      parallel_for(100, [&](std::size_t i) {
        if (i >= 37) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "37");
    }
  }
}

TEST(Exceptions, PoolSurvivesAndRunsAfterwards) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      parallel_for(10, [](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::atomic<int> calls{0};
  parallel_for(10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(Nesting, InnerCallsRunInline) {
  ThreadGuard guard(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // Nested call must complete inline without deadlocking the pool.
    parallel_for(16, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_FALSE(in_parallel_region());
}

TEST(Nesting, ReduceInsideForIsDeterministic) {
  // The inner map runs inline inside the outer one; its terms land by index,
  // so folding them in order gives the same sums at any thread count.
  auto run = [](unsigned threads) {
    ThreadGuard guard(threads);
    return parallel_map<double>(6, [](std::size_t outer) {
      const std::vector<double> terms = parallel_map<double>(
          1000,
          [&](std::size_t i) { return 1.0 / (1.0 + double(outer + i)); });
      return std::accumulate(terms.begin(), terms.end(), 0.0);
    });
  };
  EXPECT_EQ(run(1), run(8));
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the refactored analysis layers must produce
// bit-identical results for any thread count.

const data::SyntheticCorpus& small_corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    // Large enough that the front page carries both label classes (the
    // interestingness threshold is an absolute vote count), small enough to
    // generate in well under a second.
    params.user_count = 40000;
    params.story_count = 400;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

TEST(EndToEnd, BootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> data(500);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1.0 / (1.0 + double(i % 37));
  auto run = [&](unsigned threads) {
    ThreadGuard guard(threads);
    stats::Rng rng(123);
    return stats::bootstrap_mean_ci(data, 800, 0.95, rng);
  };
  const stats::Interval a = run(1);
  const stats::Interval b = run(8);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.point, b.point);
  EXPECT_LT(a.lo, a.hi);
}

TEST(EndToEnd, Fig5PredictionIdenticalAcrossThreadCounts) {
  auto run = [&](unsigned threads) {
    ThreadGuard guard(threads);
    stats::Rng rng(7);
    core::Fig5Params params;
    params.folds = 5;
    return core::fig5_prediction(small_corpus().corpus, params, rng);
  };
  const core::Fig5Result a = run(1);
  const core::Fig5Result b = run(8);
  EXPECT_EQ(a.cross_validation.pooled.tp, b.cross_validation.pooled.tp);
  EXPECT_EQ(a.cross_validation.pooled.tn, b.cross_validation.pooled.tn);
  EXPECT_EQ(a.cross_validation.pooled.fp, b.cross_validation.pooled.fp);
  EXPECT_EQ(a.cross_validation.pooled.fn, b.cross_validation.pooled.fn);
  ASSERT_EQ(a.cross_validation.per_fold.size(),
            b.cross_validation.per_fold.size());
  for (std::size_t f = 0; f < a.cross_validation.per_fold.size(); ++f) {
    EXPECT_EQ(a.cross_validation.per_fold[f].correct(),
              b.cross_validation.per_fold[f].correct());
    EXPECT_EQ(a.cross_validation.per_fold[f].total(),
              b.cross_validation.per_fold[f].total());
  }
  EXPECT_EQ(a.training_stories, b.training_stories);
  EXPECT_EQ(a.holdout_stories, b.holdout_stories);
  EXPECT_EQ(a.holdout.tp, b.holdout.tp);
  EXPECT_EQ(a.holdout.fp, b.holdout.fp);
  EXPECT_EQ(a.digg_promoted, b.digg_promoted);
  EXPECT_EQ(a.ours_predicted, b.ours_predicted);
  EXPECT_EQ(a.predictor.tree().render(), b.predictor.tree().render());
}

TEST(EndToEnd, Fig3InfluenceIdenticalAcrossThreadCounts) {
  auto run = [&](unsigned threads) {
    ThreadGuard guard(threads);
    return core::fig3a_influence(small_corpus().corpus);
  };
  const core::Fig3aResult a = run(1);
  const core::Fig3aResult b = run(8);
  EXPECT_EQ(a.at_submission, b.at_submission);
  EXPECT_EQ(a.after_10, b.after_10);
  EXPECT_EQ(a.after_20, b.after_20);
  EXPECT_EQ(a.fraction_visible_to_200_after_10,
            b.fraction_visible_to_200_after_10);
}

}  // namespace
}  // namespace digg::runtime

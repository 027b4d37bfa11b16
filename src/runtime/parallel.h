#pragma once
// Deterministic parallel loops over an index space [0, n).
//
// Determinism contract: every helper produces results that are bit-identical
// for any thread count (1 thread vs N threads, any scheduling order):
//   - parallel_for / parallel_map assign work to output slots by index, so
//     scheduling cannot reorder results;
//   - parallel_for_ranges splits [0, n) into a chunk layout that depends
//     only on n and the grain, never on the thread count;
//   - parallel_for_ordered hands results to its consumer in index order.
//
// Stochastic loop bodies keep the contract by drawing from an
// index-addressed substream (stats::Rng::split(i)) instead of a shared
// engine.
//
// Requirements on loop bodies: they are invoked concurrently on distinct
// indices and must not share mutable state (other than through their own
// synchronization). Exceptions propagate: the exception thrown by the
// lowest-numbered failing chunk is rethrown on the calling thread.
//
// Nested parallel calls (a body that itself calls parallel_*) execute
// inline on the calling worker — correct, just not further parallelized.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/runtime/thread_pool.h"

namespace digg::runtime {

struct ParallelOptions {
  /// Lane cap for this call; 0 = default_threads(). Values above
  /// default_threads() are clamped — the pool is sized by the default, so
  /// use set_default_threads (or DIGG_THREADS) to raise the ceiling.
  unsigned threads = 0;
  /// Indices per chunk; 0 = automatic (a fixed layout derived from n only,
  /// currently min(n, 256) chunks). Reductions over large per-chunk partials
  /// (e.g. whole vectors) should pass an explicit grain to bound the number
  /// of partials held alive.
  std::size_t grain = 0;
};

namespace detail {

/// Number of chunks for n indices — a function of n and grain only, never
/// of the thread count (this is what makes reductions thread-count
/// invariant).
[[nodiscard]] std::size_t chunk_count_for(std::size_t n,
                                          std::size_t grain) noexcept;

/// Half-open index range [begin, end) of `chunk` within the fixed layout.
[[nodiscard]] std::pair<std::size_t, std::size_t> chunk_bounds(
    std::size_t n, std::size_t chunk_count, std::size_t chunk) noexcept;

/// Runs chunk_fn(c) for c in [0, chunk_count) on the global pool (or inline
/// when threads <= 1, there is a single chunk, or the caller is already
/// inside a parallel region).
void run_chunks(std::size_t chunk_count,
                const std::function<void(std::size_t)>& chunk_fn,
                unsigned threads);

}  // namespace detail

/// Invokes fn(begin, end) once per chunk, over disjoint ranges covering
/// [0, n). Use when the body wants chunk-local scratch space.
template <typename RangeFn>
void parallel_for_ranges(std::size_t n, RangeFn&& fn,
                         ParallelOptions opts = {}) {
  const std::size_t chunks = detail::chunk_count_for(n, opts.grain);
  detail::run_chunks(
      chunks,
      [&](std::size_t c) {
        const auto [begin, end] = detail::chunk_bounds(n, chunks, c);
        fn(begin, end);
      },
      opts.threads);
}

/// Invokes fn(i) for every i in [0, n).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, ParallelOptions opts = {}) {
  parallel_for_ranges(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      opts);
}

/// Returns {fn(0), fn(1), ..., fn(n-1)} — results land by index. T must be
/// default-constructible and move-assignable.
template <typename T, typename MapFn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, MapFn&& fn,
                                          ParallelOptions opts = {}) {
  std::vector<T> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, opts);
  return out;
}

/// Computes produce(i) for every i in [0, n) in parallel and hands each
/// result to consume(i, T&&) in ascending index order — a bounded reorder
/// window between a parallel producer and a sequential consumer. Production
/// of index i waits until every index below i - window + 1 is consumed, so
/// at most `window` results are held at once. Consume calls never overlap
/// (whichever thread finishes the next index in order runs them), so the
/// consumer needs no locking; it may run on any pool thread. Results and
/// consume order are the same for any thread count. If produce or consume
/// throws, no later index is consumed and the exception propagates as from
/// parallel_for.
template <typename T, typename ProduceFn, typename ConsumeFn>
void parallel_for_ordered(std::size_t n, std::size_t window,
                          ProduceFn&& produce, ConsumeFn&& consume,
                          ParallelOptions opts = {}) {
  if (window == 0) window = 1;
  std::vector<std::optional<T>> ring(window);  // index i lives in i % window
  std::mutex mu;
  std::condition_variable advanced;
  std::size_t next = 0;   // lowest index not yet consumed
  bool draining = false;  // a thread is running consume calls
  bool failed = false;
  const auto fail = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    failed = true;
    advanced.notify_all();
  };
  parallel_for(
      n,
      [&](std::size_t i) {
        {
          // Cannot deadlock: chunks are claimed in ascending order, so the
          // index `next` is always claimed by a thread that is not waiting.
          std::unique_lock<std::mutex> lock(mu);
          advanced.wait(lock, [&] { return failed || i < next + window; });
          if (failed) return;
        }
        std::optional<T> value;
        try {
          value.emplace(produce(i));
        } catch (...) {
          fail();
          throw;
        }
        std::unique_lock<std::mutex> lock(mu);
        ring[i % window] = std::move(value);
        if (draining || i != next) return;
        draining = true;
        while (!failed && ring[next % window].has_value()) {
          const std::size_t k = next;
          T ready = std::move(*ring[k % window]);
          ring[k % window].reset();
          lock.unlock();
          try {
            consume(k, std::move(ready));
          } catch (...) {
            fail();
            throw;
          }
          lock.lock();
          ++next;
          advanced.notify_all();
        }
        draining = false;
      },
      opts);
}

}  // namespace digg::runtime

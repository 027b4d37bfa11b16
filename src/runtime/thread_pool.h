#pragma once
// Fixed-size thread pool and thread-count configuration for the parallel
// runtime. The pool executes one "job" at a time: a counted set of chunks
// claimed by workers (plus the calling thread) through an atomic cursor.
// Which thread runs which chunk is scheduling-dependent, but the parallel
// helpers in parallel.h map chunks to output slots by index, so results are
// identical for any thread count — see parallel.h for the determinism
// contract.
//
// Thread count resolution (always >= 1):
//   1. set_default_threads(n) with n > 0 — programmatic override;
//   2. the DIGG_THREADS environment variable, 1..1024 (anything else
//      warns once and falls through, obs/env.h);
//   3. std::thread::hardware_concurrency().

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace digg::obs {
class WatchdogTask;
}

namespace digg::runtime {

/// Number of hardware threads, never 0.
[[nodiscard]] unsigned hardware_threads() noexcept;

/// Thread count used when ParallelOptions::threads == 0. See resolution
/// order above.
[[nodiscard]] unsigned default_threads();

/// Overrides the default thread count for subsequent parallel calls.
/// Pass 0 to restore DIGG_THREADS / hardware resolution. Benchmarks use
/// this to pin the thread count per measurement.
void set_default_threads(unsigned threads);

/// True while the calling thread is executing a chunk of a parallel region.
/// Nested parallel calls detect this and run inline (serially) instead of
/// re-entering the pool, which keeps nesting deadlock-free.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Fixed-size pool of `threads - 1` workers; the thread that calls run()
/// participates as the remaining lane.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (threads is clamped to >= 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return thread_count_;
  }

  /// Executes task(chunk) for every chunk in [0, chunk_count), distributing
  /// chunks over at most `max_threads` lanes (0 = all of them). Blocks until
  /// every chunk has completed. If chunks throw, the exception from the
  /// lowest-numbered throwing chunk is rethrown; the other chunks still run
  /// to completion. Concurrent calls from different threads serialize.
  void run(std::size_t chunk_count,
           const std::function<void(std::size_t)>& task,
           unsigned max_threads = 0);

  /// Process-global pool sized to default_threads(). The pool is recreated
  /// when the configured thread count changes; callers hold a shared_ptr so
  /// an in-flight job keeps its pool alive across a resize.
  [[nodiscard]] static std::shared_ptr<ThreadPool> global();

 private:
  struct Job {
    std::size_t chunk_count = 0;
    const std::function<void(std::size_t)>* task = nullptr;
    obs::WatchdogTask* watchdog = nullptr;  // owned by run(); beaten per chunk
    std::atomic<std::size_t> next{0};
    // Guarded by ThreadPool::mutex_:
    std::size_t finished = 0;
    std::size_t workers_inside = 0;
    std::size_t error_chunk = static_cast<std::size_t>(-1);
    std::exception_ptr error;
    unsigned extra_lanes = 0;  // workers allowed in (caller is lane 0)
  };

  void worker_loop();
  void work_on(Job& job);

  unsigned thread_count_;
  std::mutex mutex_;
  std::condition_variable wake_;  // workers: a job was posted / stopping
  std::condition_variable done_;  // run(): chunks finished, workers drained
  std::mutex run_mutex_;          // serializes run() callers
  Job* job_ = nullptr;            // guarded by mutex_
  std::uint64_t generation_ = 0;  // guarded by mutex_; bumped per job
  bool stop_ = false;             // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace digg::runtime

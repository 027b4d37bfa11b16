#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "src/obs/env.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/watchdog.h"

namespace digg::runtime {

namespace {

thread_local bool tl_in_region = false;

std::atomic<unsigned> g_thread_override{0};

/// DIGG_THREADS in [1, 1024], or 0 (hardware) when unset or malformed.
unsigned env_threads() {
  return static_cast<unsigned>(obs::env_uint("DIGG_THREADS", 1, 1024, 0));
}

}  // namespace

unsigned hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned default_threads() {
  if (const unsigned o = g_thread_override.load(std::memory_order_relaxed))
    return o;
  if (const unsigned e = env_threads()) return e;
  return hardware_threads();
}

void set_default_threads(unsigned threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

bool in_parallel_region() noexcept { return tl_in_region; }

ThreadPool::ThreadPool(unsigned threads)
    : thread_count_(std::max(threads, 1u)) {
  workers_.reserve(thread_count_ - 1);
  for (unsigned i = 0; i + 1 < thread_count_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    if (!job || job->workers_inside >= job->extra_lanes) continue;
    ++job->workers_inside;
    lock.unlock();
    work_on(*job);
    lock.lock();
    if (--job->workers_inside == 0) done_.notify_all();
  }
}

void ThreadPool::work_on(Job& job) {
  // Observability only: counts and timings are recorded, never read back,
  // so results stay bit-identical with instrumentation on or off.
  static obs::Counter& chunks_done =
      obs::Registry::global().counter("runtime.chunks");
  static obs::Histogram& chunk_us =
      obs::Registry::global().histogram("runtime.chunk_us");
  tl_in_region = true;
  while (true) {
    const std::size_t chunk =
        job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunk_count) break;
    if (job.watchdog != nullptr) job.watchdog->beat();
    std::exception_ptr error;
    {
      // A failing chunk's latency counts too: the catch keeps the span's
      // exit normal.
      obs::Span span("runtime.chunk", chunk, &chunk_us);
      try {
        (*job.task)(chunk);
      } catch (...) {
        error = std::current_exception();
      }
    }
    chunks_done.inc();
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && chunk < job.error_chunk) {
      job.error_chunk = chunk;
      job.error = error;
    }
    if (++job.finished == job.chunk_count) done_.notify_all();
  }
  tl_in_region = false;
}

void ThreadPool::run(std::size_t chunk_count,
                     const std::function<void(std::size_t)>& task,
                     unsigned max_threads) {
  if (chunk_count == 0) return;
  static obs::Counter& jobs = obs::Registry::global().counter("runtime.jobs");
  static obs::Histogram& queue_wait_us =
      obs::Registry::global().histogram("runtime.queue_wait_us");
  static obs::Gauge& utilization =
      obs::Registry::global().gauge("runtime.pool_utilization");
  const unsigned lanes =
      max_threads == 0 ? thread_count_
                       : std::min(max_threads, thread_count_);
  // Queue wait = time this caller spends behind other run() callers.
  const auto wait_start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> serialize(run_mutex_);
  queue_wait_us.observe(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - wait_start)
                            .count());
  jobs.inc();
  utilization.set(static_cast<double>(lanes) /
                  static_cast<double>(thread_count_));
  obs::Span job_span("runtime.job", chunk_count);
  // A pool job that goes 60s without claiming a chunk is wedged by any
  // reasonable definition for this workload; the watchdog dumps the flight
  // recorder so the stuck chunk is identifiable.
  obs::WatchdogTask watchdog("runtime.job", 60'000);
  Job job;
  job.chunk_count = chunk_count;
  job.task = &task;
  job.watchdog = &watchdog;
  job.extra_lanes = lanes - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  if (job.extra_lanes > 0) wake_.notify_all();
  work_on(job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
      return job.finished == job.chunk_count && job.workers_inside == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::shared_ptr<ThreadPool> ThreadPool::global() {
  static std::mutex m;
  static std::shared_ptr<ThreadPool> pool;
  const unsigned want = default_threads();
  std::lock_guard<std::mutex> lock(m);
  if (!pool || pool->thread_count() != want)
    pool = std::make_shared<ThreadPool>(want);
  return pool;
}

}  // namespace digg::runtime

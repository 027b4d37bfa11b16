#include "src/runtime/parallel.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace digg::runtime::detail {

std::size_t chunk_count_for(std::size_t n, std::size_t grain) noexcept {
  if (n == 0) return 0;
  if (grain == 0) {
    // Fixed automatic layout: enough chunks that the atomic cursor balances
    // uneven per-index costs, few enough that claiming stays cheap. Must
    // not depend on the thread count (determinism contract).
    constexpr std::size_t kAutoChunks = 256;
    return std::min(n, kAutoChunks);
  }
  return (n + grain - 1) / grain;
}

std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                 std::size_t chunk_count,
                                                 std::size_t chunk) noexcept {
  const std::size_t base = n / chunk_count;
  const std::size_t rem = n % chunk_count;
  const std::size_t begin = chunk * base + std::min(chunk, rem);
  return {begin, begin + base + (chunk < rem ? 1 : 0)};
}

void run_chunks(std::size_t chunk_count,
                const std::function<void(std::size_t)>& chunk_fn,
                unsigned threads) {
  if (chunk_count == 0) return;
  // Observability only — never read back into computation.
  static obs::Histogram& chunks_per_job = obs::Registry::global().histogram(
      "runtime.chunks_per_job",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  chunks_per_job.observe(static_cast<double>(chunk_count));
  if (threads == 0) threads = default_threads();
  if (threads <= 1 || chunk_count == 1 || in_parallel_region()) {
    static obs::Counter& chunks_done =
        obs::Registry::global().counter("runtime.chunks");
    static obs::Histogram& chunk_us =
        obs::Registry::global().histogram("runtime.chunk_us");
    // Inline execution: chunks run in ascending order, so the first throw
    // is from the lowest failing chunk — same exception the pool reports.
    for (std::size_t c = 0; c < chunk_count; ++c) {
      {
        obs::Span span("runtime.chunk", c, &chunk_us);
        chunk_fn(c);
      }
      chunks_done.inc();
    }
    return;
  }
  ThreadPool::global()->run(chunk_count, chunk_fn, threads);
}

}  // namespace digg::runtime::detail

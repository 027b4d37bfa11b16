// Visibility-set benchmark: the fan-union hot path that every per-vote
// update in the simulation, the batch profiles, and the streaming engine
// goes through. Three measurements on the standard calibrated corpus:
//
//   - union:      replay every front-page story's vote column through a
//                 scratch HybridSet, one sorted CSR fan-span union per vote
//                 (the add_voter kernel). Reported per union_span call.
//   - membership: galloping contains() probes against the sets the replay
//                 produced, uniform over the user universe.
//   - replay:     full streaming-engine ingest (the end-to-end consumer of
//                 the sets), with the engine's resident state bytes.
//
// The union workload is additionally split by representation mode —
// union_array_ns_per_op times each story's sorted-array prefix (every
// union before the set promotes) and union_bitmap_ns_per_op the bitmap
// remainder — because the two modes run entirely different code (the
// galloping set difference vs src/simd's bitmap_missing/bitmap_set pair)
// and a win in one must not be masked by samples from the other. The
// banner's simd= field names the level the bitmap pair runs at.
//
// With --json <path> the gauges below land in the BENCH_visibility.json
// perf-trajectory format; scripts/bench_check.py gates union_ns_per_op,
// union_array_ns_per_op, union_bitmap_ns_per_op, contains_ns_per_op
// (lower is better) and replay_votes_per_sec (higher).

#include <chrono>
#include <cstdio>

#include "bench/common.h"
#include "src/digg/hybrid_set.h"
#include "src/simd/dispatch.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace {

template <typename F>
double best_of_ns(int reps, F&& work) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace digg;
  bench::Context ctx = bench::make_context(
      argc, argv, "Hybrid visibility sets: fan-union hot path");
  const data::Corpus& corpus = ctx.synthetic.corpus;
  const graph::Digraph& net = corpus.network;
  constexpr int kReps = 5;

  // --- union: one fan-span merge per vote, the add_voter kernel ---------
  std::size_t unions = 0;
  for (const platform::StoryView& story : corpus.front_page)
    unions += story.vote_count();
  platform::HybridSet set(net.node_count());
  const double union_total_ns = best_of_ns(kReps, [&] {
    for (const platform::StoryView& story : corpus.front_page) {
      set.reset(net.node_count());
      for (const platform::UserId voter : story.voters())
        if (voter < net.node_count()) set.union_span(net.fans(voter));
    }
  });
  const double union_ns = union_total_ns / static_cast<double>(unions);

  // --- per-mode unions: the array prefix vs the bitmap remainder --------
  // Each story's replay is two timed phases split at promotion: unions
  // issued while the set is still a sorted array, then the rest. The
  // phase an op lands in is decided by the mode at call entry (the union
  // that triggers promotion is array work), and op counts are identical
  // across reps, so best-of-reps per phase is sound.
  std::size_t array_unions = 0;
  std::size_t bitmap_unions = 0;
  double array_total_ns = 1e300;
  double bitmap_total_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    double a_ns = 0.0;
    double b_ns = 0.0;
    std::size_t a_ops = 0;
    std::size_t b_ops = 0;
    for (const platform::StoryView& story : corpus.front_page) {
      set.reset(net.node_count());
      const auto voters = story.voters();
      std::size_t i = 0;
      auto t0 = std::chrono::steady_clock::now();
      while (i < voters.size() && !set.is_bitmap()) {
        if (voters[i] < net.node_count()) {
          set.union_span(net.fans(voters[i]));
          ++a_ops;
        }
        ++i;
      }
      auto t1 = std::chrono::steady_clock::now();
      for (; i < voters.size(); ++i) {
        if (voters[i] < net.node_count()) {
          set.union_span(net.fans(voters[i]));
          ++b_ops;
        }
      }
      const auto t2 = std::chrono::steady_clock::now();
      a_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      b_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    }
    if (a_ns < array_total_ns) array_total_ns = a_ns;
    if (b_ns < bitmap_total_ns) bitmap_total_ns = b_ns;
    array_unions = a_ops;
    bitmap_unions = b_ops;
  }
  const double union_array_ns =
      array_unions ? array_total_ns / static_cast<double>(array_unions) : 0.0;
  const double union_bitmap_ns =
      bitmap_unions ? bitmap_total_ns / static_cast<double>(bitmap_unions)
                    : 0.0;

  // --- membership: gallop probes, uniform over the universe -------------
  constexpr std::size_t kProbes = 1u << 20;
  std::vector<std::uint32_t> keys(kProbes);
  for (std::uint32_t& k : keys)
    k = static_cast<std::uint32_t>(ctx.rng.uniform_int(
        0, static_cast<std::int64_t>(net.node_count()) - 1));
  std::size_t hits = 0;
  const double contains_total_ns = best_of_ns(kReps, [&] {
    std::size_t h = 0;
    for (const std::uint32_t k : keys) h += set.contains(k) ? 1 : 0;
    hits = h;
  });
  const double contains_ns =
      contains_total_ns / static_cast<double>(kProbes);

  // --- replay: the streaming engine end to end --------------------------
  const stream::EventStream es = stream::build_event_stream(corpus);
  const double votes = static_cast<double>(es.total_events());
  std::size_t state_bytes = 0;
  const double replay_ns = best_of_ns(kReps, [&] {
    stream::StreamEngine e(es, net);
    e.run_all();
    state_bytes = e.state_bytes();
  });
  const double votes_per_sec = votes / (replay_ns / 1e9);

  std::printf("fan-span unions: %zu over %zu stories (simd=%s)\n", unions,
              corpus.front_page.size(),
              simd::level_name(simd::active_level()));
  std::printf("union (add_voter kernel):  %8.1f ns/op\n", union_ns);
  std::printf("union (array mode):        %8.1f ns/op  (%zu ops)\n",
              union_array_ns, array_unions);
  std::printf("union (bitmap mode):       %8.1f ns/op  (%zu ops)\n",
              union_bitmap_ns, bitmap_unions);
  std::printf("membership (%zu probes, %zu hits): %8.1f ns/op\n",
              static_cast<std::size_t>(kProbes), hits, contains_ns);
  std::printf("stream replay:             %8.2f ms  (%.0f votes/s)\n",
              replay_ns / 1e6, votes_per_sec);
  std::printf("engine state bytes:        %zu\n", state_bytes);

  auto& reg = obs::Registry::global();
  reg.gauge("visibility.union_ns_per_op").set(union_ns);
  reg.gauge("visibility.union_array_ns_per_op").set(union_array_ns);
  reg.gauge("visibility.union_bitmap_ns_per_op").set(union_bitmap_ns);
  reg.gauge("visibility.contains_ns_per_op").set(contains_ns);
  reg.gauge("visibility.replay_votes_per_sec").set(votes_per_sec);
  reg.gauge("visibility.state_bytes").set(static_cast<double>(state_bytes));
  return 0;
}

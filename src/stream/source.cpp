#include "src/stream/source.h"

#include <cmath>

#include "src/data/snapshot_format.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace digg::stream {
namespace {

// Folds one memory block into a running hash. Chained (rather than hashing
// one flat copy of everything) so the columns are hashed in place.
std::uint64_t fold(std::uint64_t h, const void* data, std::size_t bytes) {
  const std::uint64_t block =
      data::snapfmt::fnv1a(static_cast<const char*>(data), bytes);
  return (h ^ block) * 1099511628211ull;
}

// The first defect in one story's columns, or nullptr: the replay order is
// only defined over finite, non-decreasing time columns (a NaN compares
// false both ways, so it would slip past the order check and leave the
// prefix cut without a time to find).
const char* column_defect(const platform::StoryView& s) {
  const auto times = s.times();
  if (s.voters().size() != times.size())
    return "stream story vote columns disagree";
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (!std::isfinite(times[k])) return "stream vote times must be finite";
    if (k > 0 && times[k] < times[k - 1])
      return "stream events must be time-sorted";
  }
  return nullptr;
}

}  // namespace

std::uint64_t story_table_digest(
    const std::vector<platform::StoryView>& stories) noexcept {
  std::uint64_t h = data::snapfmt::kFnvBasis;
  for (const platform::StoryView& s : stories) {
    const std::uint64_t row[4] = {
        (std::uint64_t{s.id} << 32) | s.submitter,
        reinterpret_cast<std::uintptr_t>(s.voters().data()),
        reinterpret_cast<std::uintptr_t>(s.times().data()),
        (std::uint64_t{s.voters().size()} << 32) ^ s.times().size()};
    for (const std::uint64_t word : row) h = (h ^ word) * 1099511628211ull;
  }
  return h;
}

EventStream build_event_stream(std::span<const platform::StoryView> stories) {
  obs::Span span("stream.build_event_stream");
  // The stream's one O(votes) pass: validate every column and fold its
  // identity, so each engine built over the stream costs O(stories). The
  // global (time, slot, index) order is never materialised — the engine
  // cuts it from the per-story time columns on demand.
  obs::Registry::global().counter("stream.column_passes").inc();
  EventStream out;
  out.stories.assign(stories.begin(), stories.end());
  std::uint64_t h = data::snapfmt::kFnvBasis;
  const std::uint64_t story_count = out.stories.size();
  h = fold(h, &story_count, sizeof(story_count));
  for (const platform::StoryView& s : out.stories) {
    out.total += s.vote_count();
    if (out.defect == nullptr) out.defect = column_defect(s);
    if (out.defect != nullptr) continue;
    const std::uint64_t meta[3] = {s.id, s.submitter, s.vote_count()};
    h = fold(h, meta, sizeof(meta));
    const auto voters = s.voters();
    const auto times = s.times();
    h = fold(h, voters.data(), voters.size_bytes());
    h = fold(h, times.data(), times.size_bytes());
  }
  out.identity = out.defect == nullptr ? h : 0;
  out.table_digest = story_table_digest(out.stories);
  return out;
}

EventStream build_event_stream(const data::Corpus& corpus) {
  std::vector<platform::StoryView> stories;
  stories.reserve(corpus.story_count());
  stories.insert(stories.end(), corpus.front_page.begin(),
                 corpus.front_page.end());
  stories.insert(stories.end(), corpus.upcoming.begin(),
                 corpus.upcoming.end());
  return build_event_stream(stories);
}

}  // namespace digg::stream

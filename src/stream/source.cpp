#include "src/stream/source.h"

#include "src/obs/recorder.h"

namespace digg::stream {

EventStream build_event_stream(std::span<const platform::StoryView> stories) {
  obs::Span span("stream.build_event_stream");
  // O(stories): the global (time, slot, index) order is never materialised —
  // the engine cuts it from the per-story time columns on demand, so
  // building a stream over a memory-mapped million-user corpus is just the
  // story table.
  EventStream out;
  out.stories.assign(stories.begin(), stories.end());
  for (const platform::StoryView& s : out.stories) out.total += s.vote_count();
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

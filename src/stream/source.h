#pragma once
// Event-stream construction: assembles the story table whose time columns
// define the single time-ordered event order of event.h, and makes the
// stream's one O(votes) pass — column validation and the identity fold
// (event.h) — so every engine built over the stream is O(stories). The
// event order itself stays implicit in the per-story time columns. Sources
// exist for the corpus (replay of scraped/synthetic/mmapped data) and for
// any explicit story list, so a synthetic generator run can be streamed
// without materialising a Corpus first. A defect in the columns does not
// throw here: it is recorded in the stream, and the engine throws it.

#include <span>

#include "src/data/corpus.h"
#include "src/stream/event.h"

namespace digg::stream {

/// Streams every story in the corpus, front page first then upcoming (the
/// same slot order the corpus snapshot uses). Story views alias the corpus
/// vote store: the corpus must outlive the returned stream.
[[nodiscard]] EventStream build_event_stream(const data::Corpus& corpus);

/// Streams an explicit story list; slot i is stories[i]. The backing vote
/// columns must outlive the returned stream.
[[nodiscard]] EventStream build_event_stream(
    std::span<const platform::StoryView> stories);

}  // namespace digg::stream

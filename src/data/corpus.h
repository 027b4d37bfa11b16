#pragma once
// The neutral dataset boundary. Every §4–§5 analysis consumes a Corpus; the
// synthetic generator (synthetic.h), the CSV loader (io.h), and the binary
// snapshot loader (snapshot.h) all produce one, so the real June-2006 scrape
// could be substituted without touching analysis code. Mirrors the paper's
// data (§3.1–3.2):
//   - ~200 front-page stories with chronologically ordered votes
//     (submitter first) and final vote counts,
//   - ~900 upcoming-queue stories from the same period,
//   - the fan network of all voters,
//   - the top-user ranking.
//
// Storage is columnar: all vote records live in one arena (VoteStore) and a
// data::Story is a platform::StoryView — metadata by value plus spans into
// the arena. Stories enter through add_story(), which copies their votes in
// and keeps every view bound. A Corpus is move-only, and moves are cheap
// (spans follow the moved heap buffers).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/data/vote_store.h"
#include "src/digg/types.h"

namespace digg::data {

namespace snapfmt {
class MmapSectionFile;
}  // namespace snapfmt

using Story = platform::StoryView;
using platform::StoryId;
using platform::UserId;

struct Corpus {
  graph::Digraph network;  // fan graph over all users (user id = node id)
  VoteStore vote_store;    // every story's vote columns, in one arena
  std::vector<Story> front_page;  // promoted stories
  std::vector<Story> upcoming;    // never-promoted stories (final counts known)
  /// Users ranked by reputation (promoted submissions), best first. The
  /// paper's top-user cutoffs (rank <= 100, top 1020 snapshot) index into
  /// this.
  std::vector<UserId> top_users;
  /// Which generative model produced the vote records (one of
  /// dynamics::kModelIds). Loaded corpora carry the id recorded in their
  /// snapshot; files that predate the MODELINFO section default to the
  /// legacy two-mechanism model. Real scraped data would use a reserved id.
  std::string model_id = "two-mechanism";  // dynamics::kLegacyModelId
  /// The memory-mapped snapshot whose bytes `network`/`vote_store` borrow
  /// when the corpus came from load_snapshot_mmap. Null for corpora built
  /// in memory (generation, the CSV loader).
  std::shared_ptr<const snapfmt::MmapSectionFile> backing;

  enum class Section { kFrontPage, kUpcoming };

  // Move-only: a mapped corpus borrows its bytes, and no caller needs a
  // second arena.
  Corpus() = default;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) noexcept = default;
  Corpus& operator=(Corpus&&) noexcept = default;

  /// Copies `story`'s metadata and votes into the corpus (a platform::Story
  /// converts implicitly). Returns the arena-bound resident view.
  Story& add_story(const Story& story, Section section);

  [[nodiscard]] std::size_t user_count() const noexcept {
    return network.node_count();
  }
  [[nodiscard]] std::size_t story_count() const noexcept {
    return front_page.size() + upcoming.size();
  }

  /// Rank of a user in the top-user list (0-based), or npos if absent.
  [[nodiscard]] std::size_t rank_of(UserId user) const;
  /// True if `user` is among the `cutoff` highest-ranked users (the paper's
  /// "top users (with rank <= 100)" uses cutoff = 100).
  [[nodiscard]] bool is_top_user(UserId user, std::size_t cutoff) const;

  /// Re-points every story view at this corpus's arena (used after the
  /// arena relocates: add_story growth, snapshot loads).
  void rebind_views();

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Per-user activity counts (Fig. 2b): number of front-page submissions and
/// number of votes cast, over the given stories.
struct UserActivity {
  std::vector<std::uint32_t> submissions;
  std::vector<std::uint32_t> votes;
};
[[nodiscard]] UserActivity user_activity(const Corpus& corpus);

/// Final vote counts of the front-page stories (Fig. 2a input).
[[nodiscard]] std::vector<double> final_votes(const std::vector<Story>& stories);

/// Integrity checks every loader runs; throws std::runtime_error describing
/// the first violation: per story (front page first, in order) votes
/// present, submitter first and in range, voters in range, finite
/// submission, promotion and vote times, vote order, no duplicate voter,
/// promotion time matching the section; then top users in range and no
/// story id used twice across both sections.
void validate(const Corpus& corpus);

}  // namespace digg::data

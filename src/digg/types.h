#pragma once
// Core domain types shared by the platform simulator, the vote dynamics, and
// the analysis library. Conventions follow the paper's dataset (§3.1):
// votes are stored in chronological order and the submitter's own digg is
// always the first vote on a story.
//
// Vote records are columnar (structure-of-arrays): a story's voters and vote
// times live in two parallel arrays instead of one vector of {user, time}
// structs. Analysis code overwhelmingly scans one column at a time (voter
// ids against the fan graph, or times against a cutoff), so the split keeps
// the scanned column dense in cache and halves the bytes touched. Two types
// share the layout:
//   - Story      owns its two columns; the platform simulator mutates it.
//   - StoryView  is a non-owning view (spans over columns held elsewhere —
//     a Story, or data::VoteStore's shared arena). The analysis layers
//     consume StoryView only, so a corpus of a thousand stories is two big
//     allocations instead of a thousand small ones.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/graph/digraph.h"

namespace digg::platform {

using UserId = graph::NodeId;
using StoryId = std::uint32_t;

/// Simulation time in minutes since the start of the observation window.
using Minutes = double;

inline constexpr Minutes kMinutesPerHour = 60.0;
inline constexpr Minutes kMinutesPerDay = 24.0 * kMinutesPerHour;

/// Where a story currently lives on the site.
enum class StoryPhase : std::uint8_t {
  kUpcoming,   // visible in the upcoming stories queue
  kFrontPage,  // promoted to the front page
  kExpired,    // aged out of the upcoming queue without promotion
};

/// A story and its complete voting record, stored as two parallel columns.
/// `time` is unknown for scraped data (the paper only has vote order), so
/// analysis code must rely on order, not timestamps.
struct Story {
  StoryId id = 0;
  UserId submitter = 0;
  Minutes submitted_at = 0.0;

  /// Latent interestingness in [0, 1]: the probability scale at which users
  /// who *see* the story choose to digg it. Hidden from analysis code; the
  /// observable proxy is the final vote count.
  double quality = 0.0;

  /// Chronological vote columns; voters.front() is the submitter and
  /// times.front() their digg time. Always the same length.
  std::vector<UserId> voters;
  std::vector<Minutes> times;

  StoryPhase phase = StoryPhase::kUpcoming;
  std::optional<Minutes> promoted_at;

  [[nodiscard]] std::size_t vote_count() const noexcept {
    return voters.size();
  }
  [[nodiscard]] bool promoted() const noexcept {
    return promoted_at.has_value();
  }
  /// Votes cast strictly before `cutoff` (times are chronological).
  [[nodiscard]] std::size_t votes_before(Minutes cutoff) const {
    return static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), cutoff) - times.begin());
  }
};

/// Non-owning columnar view of a story: metadata by value, vote columns as
/// spans into storage owned elsewhere. Implicitly constructible from a
/// Story, so every analysis entry point takes `const StoryView&` and works
/// on platform stories and corpus-resident stories alike. When the view is
/// backed by a data::VoteStore, `store_slot()` identifies its row there so
/// owners can rebind the spans after the store relocates.
class StoryView {
 public:
  StoryId id = 0;
  UserId submitter = 0;
  Minutes submitted_at = 0.0;
  double quality = 0.0;
  StoryPhase phase = StoryPhase::kUpcoming;
  std::optional<Minutes> promoted_at;

  /// store_slot() value for views not backed by a VoteStore.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  StoryView() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit bridge.
  StoryView(const Story& s)
      : id(s.id),
        submitter(s.submitter),
        submitted_at(s.submitted_at),
        quality(s.quality),
        phase(s.phase),
        promoted_at(s.promoted_at),
        voters_(s.voters),
        times_(s.times) {}

  [[nodiscard]] std::span<const UserId> voters() const noexcept {
    return voters_;
  }
  [[nodiscard]] std::span<const Minutes> times() const noexcept {
    return times_;
  }
  [[nodiscard]] std::size_t vote_count() const noexcept {
    return voters_.size();
  }
  [[nodiscard]] bool promoted() const noexcept {
    return promoted_at.has_value();
  }
  /// Votes cast strictly before `cutoff` (times are chronological).
  [[nodiscard]] std::size_t votes_before(Minutes cutoff) const {
    return static_cast<std::size_t>(
        std::lower_bound(times_.begin(), times_.end(), cutoff) -
        times_.begin());
  }

  /// A view of the same story cut to its first min(n, vote_count()) votes,
  /// submitter's digg included — "what the predictor saw at vote n".
  [[nodiscard]] StoryView truncated(std::size_t n) const {
    StoryView out = *this;
    const std::size_t keep = std::min(n, voters_.size());
    out.voters_ = voters_.subspan(0, keep);
    out.times_ = times_.subspan(0, keep);
    return out;
  }

  [[nodiscard]] std::uint32_t store_slot() const noexcept {
    return store_slot_;
  }
  /// Points the view at (possibly relocated) columns. Owners of the backing
  /// storage call this after it relocates; `slot` tags the row for future
  /// rebinds.
  void bind(std::span<const UserId> voters, std::span<const Minutes> times,
            std::uint32_t slot) noexcept {
    voters_ = voters;
    times_ = times;
    store_slot_ = slot;
  }

 private:
  std::span<const UserId> voters_;
  std::span<const Minutes> times_;
  std::uint32_t store_slot_ = kNoSlot;
};

}  // namespace digg::platform

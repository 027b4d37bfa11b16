#pragma once
// The upcoming stories queue and the front page (§3): new submissions are
// listed reverse-chronologically, 15 to a page; Digg promoted a handful per
// day; upcoming stories expire after ~24h if not promoted. Page position
// matters because browsing users mostly look at the first pages.

#include <cstddef>
#include <vector>

#include "src/digg/types.h"

namespace digg::platform {

inline constexpr std::size_t kStoriesPerPage = 15;

struct QueueParams {
  /// Stories age out of the upcoming queue after this long unpromoted.
  Minutes upcoming_lifetime = kMinutesPerDay;
  /// Number of upcoming pages a typical browsing user ever looks at. With
  /// 1500+ daily submissions (§4) the queue is "unmanageable"; users see
  /// only the newest few pages.
  std::size_t browsed_pages = 3;
};

/// Reverse-chronological listing shared by the upcoming queue and the front
/// page. Stories are referenced by id; the owner stores the Story records.
class Listing {
 public:
  /// Adds a story to the top of the listing.
  void push_front(StoryId id);
  /// Removes a story wherever it is (promotion or expiry). No-op if absent.
  void remove(StoryId id);

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  /// The newest `pages * kStoriesPerPage` stories.
  [[nodiscard]] std::vector<StoryId> first_pages(std::size_t pages) const;

  [[nodiscard]] const std::vector<StoryId>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<StoryId> items_;  // newest first
};

}  // namespace digg::platform

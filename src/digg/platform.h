#pragma once
// The Digg platform mechanics, split by ownership so stories can be
// simulated in parallel:
//   - Site: the immutable part — fan network, user population, promotion
//     policy and queue parameters. Workers share one Site read-only.
//   - StoryState: one story's mutable part — its record, its live
//     Friends-interface visibility set and its running vote mass. Owned by
//     whichever worker simulates the story; the Site's const member
//     functions step it (validate and record a vote, run the promotion
//     check, expire a stale submission).
//   - Platform: a whole site on one clock — a Site plus every story's state
//     and the upcoming/front-page listings — for simulations in which
//     stories compete (dynamics/site_sim.h). It keeps one visibility set per
//     story.
// The vote *dynamics* (who votes when) live in src/dynamics.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/digg/friends_interface.h"
#include "src/digg/promotion.h"
#include "src/digg/queue.h"
#include "src/digg/types.h"
#include "src/digg/user.h"

namespace digg::platform {

/// One story's mutable simulation state. The visibility set points into the
/// Site's network, so a state must not outlive the Site that opened it.
struct StoryState {
  Story story;
  VisibilitySet visibility;
  /// Sum of the policy's vote weights in vote order: 1.0 for the
  /// submitter's digg, then PromotionPolicy::vote_weight per vote.
  double vote_mass = 0.0;
};

/// The immutable site. Neither copyable nor movable: every StoryState's
/// visibility set refers to the network stored here.
class Site {
 public:
  Site(graph::Digraph network, std::vector<UserProfile> users,
       std::unique_ptr<PromotionPolicy> policy, QueueParams queue_params = {});
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Opens story `id`: records the submitter's own digg and makes their fans
  /// watchers. Throws std::out_of_range for an unknown submitter.
  [[nodiscard]] StoryState submit(StoryId id, UserId submitter,
                                  double quality, Minutes now) const;

  /// Records a digg on `state`. Returns true if this vote triggered
  /// promotion. Throws std::out_of_range for an unknown user,
  /// std::logic_error if the story expired or was never submitted, and
  /// std::invalid_argument for a repeat or out-of-order vote; a refused
  /// vote leaves `state` unchanged. O(fans of `user`): the duplicate check
  /// probes the visibility set, not the vote column.
  bool vote(StoryState& state, UserId user, Minutes now) const;

  /// Expires the story if it is still upcoming and older than the queue
  /// lifetime. Returns true if this call expired it.
  bool expire_if_stale(StoryState& state, Minutes now) const;

  [[nodiscard]] const graph::Digraph& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const std::vector<UserProfile>& users() const noexcept {
    return users_;
  }
  [[nodiscard]] const PromotionPolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] const QueueParams& queue_params() const noexcept {
    return queue_params_;
  }

 private:
  graph::Digraph network_;
  std::vector<UserProfile> users_;
  std::unique_ptr<PromotionPolicy> policy_;
  QueueParams queue_params_;
};

/// A whole site: every story's state plus the upcoming/front-page listings.
class Platform {
 public:
  Platform(graph::Digraph network, std::vector<UserProfile> users,
           std::unique_ptr<PromotionPolicy> policy,
           QueueParams queue_params = {});

  /// Submits a story; records the submitter's own digg and places the story
  /// at the top of the upcoming queue.
  StoryId submit(UserId submitter, double quality, Minutes now);

  /// Records a digg. Returns true if this vote triggered promotion.
  /// Throws if the user already voted or the story is expired.
  bool vote(StoryId story, UserId user, Minutes now);

  /// Expires upcoming stories older than the queue lifetime.
  void expire_stale(Minutes now);

  [[nodiscard]] const Story& story(StoryId id) const;
  /// Live visibility set of a story (who can see it via the Friends
  /// interface right now). The reference stays valid until the next
  /// submit().
  [[nodiscard]] const VisibilitySet& visibility(StoryId id) const;

  [[nodiscard]] const Listing& upcoming() const noexcept { return upcoming_; }
  [[nodiscard]] const Listing& front_page() const noexcept {
    return front_page_;
  }
  [[nodiscard]] const Site& site() const noexcept { return site_; }
  [[nodiscard]] const std::vector<UserProfile>& users() const noexcept {
    return site_.users();
  }
  [[nodiscard]] const QueueParams& queue_params() const noexcept {
    return site_.queue_params();
  }
  [[nodiscard]] std::size_t story_count() const noexcept {
    return states_.size();
  }

 private:
  [[nodiscard]] const StoryState& state(StoryId id) const;

  Site site_;
  std::vector<StoryState> states_;
  Listing upcoming_;
  Listing front_page_;
};

}  // namespace digg::platform

#pragma once
// Digg's front-page promotion algorithms. The real algorithm was secret and
// changed regularly (§3); the paper's dataset pins one hard observable: no
// front-page story had fewer than 43 votes and no upcoming story had more
// than 42. We provide three policies:
//
//  - VoteCountPolicy:   the June-2006 era behaviour the dataset exhibits —
//                       promote at a vote-count threshold reached within the
//                       upcoming lifetime.
//  - VoteRatePolicy:    threshold + minimum recent voting rate ("the rate at
//                       which it receives them", §3).
//  - DiversityPolicy:   the September-2006 change — votes are discounted by
//                       "digging diversity", i.e. votes from fans of prior
//                       voters count less.

#include <memory>
#include <string>

#include "src/digg/types.h"

namespace digg::platform {

struct StoryState;  // platform.h

/// Decision interface consulted after every vote on an upcoming story.
class PromotionPolicy {
 public:
  virtual ~PromotionPolicy() = default;

  /// The weight a vote (after the submitter's) adds to the story's running
  /// vote mass, StoryState::vote_mass. `fan_of_prior_voter` is true when
  /// the voter could already see the story through the Friends interface.
  /// Site::vote calls it once per vote, in vote order.
  [[nodiscard]] virtual double vote_weight(
      bool /*fan_of_prior_voter*/) const noexcept {
    return 1.0;
  }

  /// True if the story should be promoted now.
  [[nodiscard]] virtual bool should_promote(const StoryState& state,
                                            Minutes now) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Promote once vote_count >= threshold, provided the story is still within
/// its promotion window (24h per §3).
class VoteCountPolicy final : public PromotionPolicy {
 public:
  explicit VoteCountPolicy(std::size_t threshold = 43,
                           Minutes window = kMinutesPerDay);

  [[nodiscard]] bool should_promote(const StoryState& state,
                                    Minutes now) const override;
  [[nodiscard]] std::string name() const override { return "vote-count"; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

 private:
  std::size_t threshold_;
  Minutes window_;
};

/// Promote once vote_count >= threshold AND the last `rate_votes` votes
/// arrived within `rate_window` minutes.
class VoteRatePolicy final : public PromotionPolicy {
 public:
  VoteRatePolicy(std::size_t threshold = 43, std::size_t rate_votes = 10,
                 Minutes rate_window = 4.0 * kMinutesPerHour,
                 Minutes window = kMinutesPerDay);

  [[nodiscard]] bool should_promote(const StoryState& state,
                                    Minutes now) const override;
  [[nodiscard]] std::string name() const override { return "vote-rate"; }

 private:
  std::size_t threshold_;
  std::size_t rate_votes_;
  Minutes rate_window_;
  Minutes window_;
};

/// The September-2006 "unique digging diversity" variant: each vote is
/// weighted by how independent the voter is of prior voters — a vote from a
/// fan of any previous voter counts `fan_vote_weight` (< 1), an independent
/// vote counts 1. Promote when the weighted sum (the story's vote mass)
/// reaches the threshold.
class DiversityPolicy final : public PromotionPolicy {
 public:
  explicit DiversityPolicy(double weighted_threshold = 43.0,
                           double fan_vote_weight = 0.4,
                           Minutes window = kMinutesPerDay);

  [[nodiscard]] double vote_weight(
      bool fan_of_prior_voter) const noexcept override {
    return fan_of_prior_voter ? fan_vote_weight_ : 1.0;
  }
  [[nodiscard]] bool should_promote(const StoryState& state,
                                    Minutes now) const override;
  [[nodiscard]] std::string name() const override { return "diversity"; }

 private:
  double weighted_threshold_;
  double fan_vote_weight_;
  Minutes window_;
};

/// Factory helpers.
[[nodiscard]] std::unique_ptr<PromotionPolicy> make_june2006_policy();
[[nodiscard]] std::unique_ptr<PromotionPolicy> make_september2006_policy();

}  // namespace digg::platform

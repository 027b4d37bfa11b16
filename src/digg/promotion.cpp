#include "src/digg/promotion.h"

#include "src/digg/platform.h"

namespace digg::platform {

VoteCountPolicy::VoteCountPolicy(std::size_t threshold, Minutes window)
    : threshold_(threshold), window_(window) {}

bool VoteCountPolicy::should_promote(const StoryState& state,
                                     Minutes now) const {
  const Story& story = state.story;
  if (now - story.submitted_at > window_) return false;
  return story.vote_count() >= threshold_;
}

VoteRatePolicy::VoteRatePolicy(std::size_t threshold, std::size_t rate_votes,
                               Minutes rate_window, Minutes window)
    : threshold_(threshold),
      rate_votes_(rate_votes),
      rate_window_(rate_window),
      window_(window) {}

bool VoteRatePolicy::should_promote(const StoryState& state,
                                    Minutes now) const {
  const Story& story = state.story;
  if (now - story.submitted_at > window_) return false;
  if (story.vote_count() < threshold_) return false;
  if (story.vote_count() < rate_votes_) return false;
  const Minutes window_start = story.times[story.vote_count() - rate_votes_];
  return story.times.back() - window_start <= rate_window_;
}

DiversityPolicy::DiversityPolicy(double weighted_threshold,
                                 double fan_vote_weight, Minutes window)
    : weighted_threshold_(weighted_threshold),
      fan_vote_weight_(fan_vote_weight),
      window_(window) {}

bool DiversityPolicy::should_promote(const StoryState& state,
                                     Minutes now) const {
  if (now - state.story.submitted_at > window_) return false;
  return state.vote_mass >= weighted_threshold_;
}

std::unique_ptr<PromotionPolicy> make_june2006_policy() {
  return std::make_unique<VoteCountPolicy>();
}

std::unique_ptr<PromotionPolicy> make_september2006_policy() {
  return std::make_unique<DiversityPolicy>();
}

}  // namespace digg::platform

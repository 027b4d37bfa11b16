#include "src/digg/platform.h"

#include <stdexcept>

#include "src/digg/story.h"

namespace digg::platform {

Site::Site(graph::Digraph network, std::vector<UserProfile> users,
           std::unique_ptr<PromotionPolicy> policy, QueueParams queue_params)
    : network_(std::move(network)),
      users_(std::move(users)),
      policy_(std::move(policy)),
      queue_params_(queue_params) {
  if (!policy_) throw std::invalid_argument("Site: null promotion policy");
  if (users_.size() != network_.node_count())
    throw std::invalid_argument(
        "Site: user population and network size mismatch");
}

StoryState Site::submit(StoryId id, UserId submitter, double quality,
                        Minutes now) const {
  if (submitter >= users_.size())
    throw std::out_of_range("Site::submit: unknown user");
  StoryState state{make_story(id, submitter, now, quality),
                   VisibilitySet(network_), /*vote_mass=*/1.0};
  state.visibility.add_voter(submitter);
  return state;
}

bool Site::vote(StoryState& state, UserId user, Minutes now) const {
  if (user >= users_.size())
    throw std::out_of_range("Site::vote: unknown user");
  Story& s = state.story;
  if (s.phase == StoryPhase::kExpired)
    throw std::logic_error("Site::vote: story expired");
  if (s.voters.empty())
    throw std::logic_error("Site::vote: story not submitted");
  if (state.visibility.has_voted(user))
    throw std::invalid_argument("Site::vote: duplicate voter");
  if (now < s.times.back())
    throw std::invalid_argument("Site::vote: votes must be chronological");
  // Classify before add_voter: a voter who could already see the story is
  // a fan of some prior voter.
  const bool fan_of_prior_voter = state.visibility.can_see(user);
  state.visibility.add_voter(user);
  s.voters.push_back(user);
  s.times.push_back(now);
  state.vote_mass += policy_->vote_weight(fan_of_prior_voter);
  if (s.phase == StoryPhase::kUpcoming && policy_->should_promote(state, now)) {
    s.phase = StoryPhase::kFrontPage;
    s.promoted_at = now;
    return true;
  }
  return false;
}

bool Site::expire_if_stale(StoryState& state, Minutes now) const {
  Story& s = state.story;
  if (s.phase != StoryPhase::kUpcoming ||
      !(now - s.submitted_at > queue_params_.upcoming_lifetime))
    return false;
  s.phase = StoryPhase::kExpired;
  return true;
}

Platform::Platform(graph::Digraph network, std::vector<UserProfile> users,
                   std::unique_ptr<PromotionPolicy> policy,
                   QueueParams queue_params)
    : site_(std::move(network), std::move(users), std::move(policy),
            queue_params) {}

StoryId Platform::submit(UserId submitter, double quality, Minutes now) {
  const auto id = static_cast<StoryId>(states_.size());
  states_.push_back(site_.submit(id, submitter, quality, now));
  upcoming_.push_front(id);
  return id;
}

bool Platform::vote(StoryId story_id, UserId user, Minutes now) {
  if (story_id >= states_.size())
    throw std::out_of_range("Platform::vote: unknown story");
  if (!site_.vote(states_[story_id], user, now)) return false;
  upcoming_.remove(story_id);
  front_page_.push_front(story_id);
  return true;
}

void Platform::expire_stale(Minutes now) {
  // Collect first: Listing::remove invalidates iteration order.
  std::vector<StoryId> stale;
  for (StoryId id : upcoming_.items())
    if (site_.expire_if_stale(states_[id], now)) stale.push_back(id);
  for (StoryId id : stale) upcoming_.remove(id);
}

const StoryState& Platform::state(StoryId id) const {
  if (id >= states_.size())
    throw std::out_of_range("Platform: unknown story");
  return states_[id];
}

const Story& Platform::story(StoryId id) const { return state(id).story; }

const VisibilitySet& Platform::visibility(StoryId id) const {
  return state(id).visibility;
}

}  // namespace digg::platform

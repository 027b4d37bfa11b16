#include "src/data/corpus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"

namespace digg::data {

namespace {

void record_vote_column_bytes(const VoteStore& store) {
  static obs::Gauge& gauge =
      obs::Registry::global().gauge("data.corpus_vote_column_bytes");
  gauge.set(static_cast<double>(store.size_bytes()));
}

}  // namespace

Story& Corpus::add_story(const Story& story, Section section) {
  const std::uint32_t slot = vote_store.append(story.voters(), story.times());
  auto& bucket = section == Section::kFrontPage ? front_page : upcoming;
  Story& resident = bucket.emplace_back(story);
  resident.bind(vote_store.voters(slot), vote_store.times(slot), slot);
  // Growing the arena may have relocated the columns under earlier views.
  rebind_views();
  record_vote_column_bytes(vote_store);
  return bucket.back();
}

void Corpus::rebind_views() {
  const auto rebind = [&](Story& s) {
    const std::uint32_t slot = s.store_slot();
    if (slot != Story::kNoSlot)
      s.bind(vote_store.voters(slot), vote_store.times(slot), slot);
  };
  for (Story& s : front_page) rebind(s);
  for (Story& s : upcoming) rebind(s);
}

std::size_t Corpus::rank_of(UserId user) const {
  const auto it = std::find(top_users.begin(), top_users.end(), user);
  return it == top_users.end()
             ? npos
             : static_cast<std::size_t>(it - top_users.begin());
}

bool Corpus::is_top_user(UserId user, std::size_t cutoff) const {
  const std::size_t rank = rank_of(user);
  return rank != npos && rank < cutoff;
}

UserActivity user_activity(const Corpus& corpus) {
  UserActivity act;
  act.submissions.assign(corpus.user_count(), 0);
  act.votes.assign(corpus.user_count(), 0);
  for (const Story& s : corpus.front_page) {
    if (s.submitter < act.submissions.size()) ++act.submissions[s.submitter];
    for (UserId voter : s.voters()) {
      if (voter < act.votes.size()) ++act.votes[voter];
    }
  }
  return act;
}

std::vector<double> final_votes(const std::vector<Story>& stories) {
  std::vector<double> out;
  out.reserve(stories.size());
  for (const Story& s : stories)
    out.push_back(static_cast<double>(s.vote_count()));
  return out;
}

namespace {

// `seen` holds one bit per user and is all clear between stories: a story
// sets its voters' bits and clears them again, so the duplicate-voter check
// is O(votes) without a per-story allocation.
void validate_story(const Story& s, std::vector<std::uint64_t>& seen,
                    std::size_t user_count, const char* which) {
  const std::string ctx = std::string(which) + " story " +
                          std::to_string(s.id) + ": ";
  const auto voters = s.voters();
  const auto times = s.times();
  if (voters.empty())
    throw std::runtime_error(ctx + "no votes (submitter digg missing)");
  if (voters.front() != s.submitter)
    throw std::runtime_error(ctx + "first vote is not the submitter's");
  if (s.submitter >= user_count)
    throw std::runtime_error(ctx + "submitter outside the network");
  if (!std::isfinite(s.submitted_at))
    throw std::runtime_error(ctx + "non-finite submission time");
  if (s.promoted_at && !std::isfinite(*s.promoted_at))
    throw std::runtime_error(ctx + "non-finite promotion time");
  for (std::size_t i = 0; i < voters.size(); ++i) {
    if (voters[i] >= user_count)
      throw std::runtime_error(ctx + "voter outside the network");
    if (!std::isfinite(times[i]))
      throw std::runtime_error(ctx + "non-finite vote time");
    if (i > 0 && times[i] < times[i - 1])
      throw std::runtime_error(ctx + "votes out of chronological order");
  }
  const auto bit = [](UserId u) { return std::uint64_t{1} << (u % 64); };
  for (UserId u : voters) {
    if (seen[u / 64] & bit(u))
      throw std::runtime_error(ctx + "duplicate voter");
    seen[u / 64] |= bit(u);
  }
  for (UserId u : voters) seen[u / 64] &= ~bit(u);
}

}  // namespace

void validate(const Corpus& corpus) {
  std::vector<std::uint64_t> seen((corpus.user_count() + 63) / 64);
  for (const Story& s : corpus.front_page) {
    validate_story(s, seen, corpus.user_count(), "front-page");
    if (!s.promoted())
      throw std::runtime_error("front-page story " + std::to_string(s.id) +
                               ": missing promotion time");
  }
  for (const Story& s : corpus.upcoming) {
    validate_story(s, seen, corpus.user_count(), "upcoming");
    if (s.promoted())
      throw std::runtime_error("upcoming story " + std::to_string(s.id) +
                               ": has a promotion time");
  }
  for (UserId u : corpus.top_users) {
    if (u >= corpus.user_count())
      throw std::runtime_error("top user outside the network");
  }
  // Analyses key stories by id (fig5 splits training from holdout by it),
  // so an id used twice would silently drop a story.
  std::vector<StoryId> ids;
  ids.reserve(corpus.story_count());
  for (const Story& s : corpus.front_page) ids.push_back(s.id);
  for (const Story& s : corpus.upcoming) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end())
    throw std::runtime_error("duplicate story id " + std::to_string(*dup));
}

}  // namespace digg::data

#include "src/digg/story.h"

#include <algorithm>
#include <stdexcept>

namespace digg::platform {

void add_vote(Story& story, UserId user, Minutes time) {
  if (story.voters.empty()) {
    if (user != story.submitter)
      throw std::invalid_argument(
          "add_vote: first vote must be the submitter's digg");
  } else {
    if (time < story.times.back())
      throw std::invalid_argument("add_vote: votes must be chronological");
    if (has_voted(story, user))
      throw std::invalid_argument("add_vote: duplicate voter");
  }
  story.voters.push_back(user);
  story.times.push_back(time);
}

bool has_voted(const StoryView& story, UserId user) {
  const auto column = story.voters();
  return std::find(column.begin(), column.end(), user) != column.end();
}

std::span<const UserId> voters(const StoryView& story) {
  return story.voters();
}

Story make_story(StoryId id, UserId submitter, Minutes submitted_at,
                 double quality) {
  if (quality < 0.0 || quality > 1.0)
    throw std::invalid_argument("make_story: quality outside [0,1]");
  Story s;
  s.id = id;
  s.submitter = submitter;
  s.submitted_at = submitted_at;
  s.quality = quality;
  s.voters.push_back(submitter);
  s.times.push_back(submitted_at);
  return s;
}

}  // namespace digg::platform

#include "src/digg/story.h"

#include <stdexcept>

namespace digg::platform {

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

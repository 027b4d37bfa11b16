#pragma once
// Story creation on top of the columnar `Story` record. The site records
// every later vote through Site::vote, which checks it against the story's
// visibility bitmap.

#include "src/digg/types.h"

namespace digg::platform {

/// Creates a story with the submitter's initial digg recorded.
[[nodiscard]] Story make_story(StoryId id, UserId submitter,
                               Minutes submitted_at, double quality);

}  // namespace digg::platform

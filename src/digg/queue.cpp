#include "src/digg/queue.h"

#include <algorithm>

namespace digg::platform {

void Listing::push_front(StoryId id) { items_.insert(items_.begin(), id); }

void Listing::remove(StoryId id) {
  items_.erase(std::remove(items_.begin(), items_.end(), id), items_.end());
}

std::vector<StoryId> Listing::first_pages(std::size_t pages) const {
  const std::size_t end = std::min(pages * kStoriesPerPage, items_.size());
  return {items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(end)};
}

}  // namespace digg::platform

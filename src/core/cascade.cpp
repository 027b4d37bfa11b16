#include "src/core/cascade.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/prefix_visibility.h"

namespace digg::core {

std::size_t in_network_votes(const StoryView& story,
                             const graph::Digraph& network, std::size_t n) {
  return cascade_profile(story, network, {n})[0];
}

std::vector<std::size_t> cascade_profile(
    const StoryView& story, const graph::Digraph& network,
    const std::vector<std::size_t>& checkpoints) {
  if (!std::is_sorted(checkpoints.begin(), checkpoints.end()))
    throw std::invalid_argument("cascade_profile: checkpoints not ascending");
  // Only votes up to the last checkpoint are classified.
  const auto voters = story.voters();
  std::vector<std::size_t> out;
  out.reserve(checkpoints.size());
  std::size_t count = 0;
  std::size_t k = 1;
  for (std::size_t checkpoint : checkpoints) {
    const std::size_t limit =
        voters.empty() ? 0 : std::min(checkpoint, voters.size() - 1);
    for (; k <= limit; ++k)
      if (in_network(voters.first(k), voters[k], network)) ++count;
    out.push_back(count);
  }
  return out;
}

}  // namespace digg::core

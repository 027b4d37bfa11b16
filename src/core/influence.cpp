#include "src/core/influence.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/prefix_visibility.h"

namespace digg::core {

std::vector<std::size_t> influence_profile(
    const platform::StoryView& story, const graph::Digraph& network,
    const std::vector<std::size_t>& checkpoints) {
  if (!std::is_sorted(checkpoints.begin(), checkpoints.end()))
    throw std::invalid_argument("influence_profile: checkpoints not ascending");
  const auto voters = story.voters();
  const std::size_t longest =
      checkpoints.empty() ? 0 : std::min(checkpoints.back(), voters.size());
  thread_local std::vector<std::uint32_t> curve;
  curve.resize(longest);
  influence_curve(voters, network, curve);
  std::vector<std::size_t> out;
  out.reserve(checkpoints.size());
  for (std::size_t checkpoint : checkpoints) {
    const std::size_t m = std::min(checkpoint, voters.size());
    out.push_back(m == 0 ? 0 : curve[m - 1]);
  }
  return out;
}

}  // namespace digg::core

#pragma once
// Information cascades (§4.1). A vote is *in-network* if the voter is a fan
// of the submitter or of any previous voter — i.e. the story could have
// reached them through the Friends interface. The story's cascade after N
// votes is the number of in-network votes among its first N votes (not
// counting the submitter's own digg, which opens the cascade). Each vote is
// one core::in_network probe (prefix_visibility.h); the count queries
// classify only the votes they need.

#include <cstddef>
#include <vector>

#include "src/digg/types.h"

namespace digg::core {

using platform::StoryView;
using platform::UserId;

/// Number of in-network votes among the first `n` votes after the
/// submitter's digg ("the number of in-network votes the story received
/// within the first n votes"). If the story has fewer than n votes, counts
/// over what exists.
[[nodiscard]] std::size_t in_network_votes(const StoryView& story,
                                           const graph::Digraph& network,
                                           std::size_t n);

/// Cascade sizes at several checkpoints in one pass over the first
/// checkpoints.back() votes. checkpoints must be ascending.
[[nodiscard]] std::vector<std::size_t> cascade_profile(
    const StoryView& story, const graph::Digraph& network,
    const std::vector<std::size_t>& checkpoints);

}  // namespace digg::core

#pragma once
// Story influence (§4.1): "A story's influence is given by the number of
// users who can see it through the Friends interface." Computed after a
// given number of votes — Fig. 3(a) reports it at submission, after 10 and
// after 20 votes.

#include <cstddef>
#include <vector>

#include "src/digg/types.h"

namespace digg::core {

/// Influence after each checkpoint's number of votes (including the
/// submitter's digg; 1 means "at submission"), from one
/// core::influence_curve pass (prefix_visibility.h) over the first
/// checkpoints.back() votes. Voters themselves are not counted — they have
/// already acted. `checkpoints` must be ascending; values beyond the vote
/// record saturate.
[[nodiscard]] std::vector<std::size_t> influence_profile(
    const platform::StoryView& story, const graph::Digraph& network,
    const std::vector<std::size_t>& checkpoints);

}  // namespace digg::core

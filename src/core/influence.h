#pragma once
// Story influence (§4.1): "A story's influence is given by the number of
// users who can see it through the Friends interface." Computed after a
// given number of votes — Fig. 3(a) reports it at submission, after 10 and
// after 20 votes.

#include <cstddef>
#include <vector>

#include "src/digg/types.h"

namespace digg::core {

/// Influence after the first `votes_counted` votes (including the
/// submitter's digg; pass 1 for "at submission"). Voters themselves are not
/// counted — they have already acted.
[[nodiscard]] std::size_t influence_after(const platform::StoryView& story,
                                          const graph::Digraph& network,
                                          std::size_t votes_counted);

/// Influence at several vote checkpoints from one core::influence_curve
/// pass (prefix_visibility.h) over the first checkpoints.back() votes.
/// `checkpoints` must be ascending; values beyond the vote record saturate.
[[nodiscard]] std::vector<std::size_t> influence_profile(
    const platform::StoryView& story, const graph::Digraph& network,
    const std::vector<std::size_t>& checkpoints);

}  // namespace digg::core

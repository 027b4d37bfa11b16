#pragma once
// Friends-interface visibility computed from a story's vote prefix alone —
// the one implementation behind the §4.1 quantities, shared by the batch
// profiles (cascade.h, influence.h) and the stream engine. prefix[0] is the
// submitter's own digg (types.h). Both functions read friends rows and fan
// rows as one relation: Digraph::build constructs the fan rows as the exact
// transpose of the friends rows, and Digraph::from_views verifies it. So a
// caller that needs both a story's in-network flags and its influence curve
// (the replay engine) gets them from one influence_curve call; in_network is
// the probe for a caller that knows only the voters so far (live ingest,
// the batch cascade profile).

#include <cstdint>
#include <span>

#include "src/digg/types.h"

namespace digg::core {

/// True iff `voter` is a fan of a user in `earlier`, i.e. friends(voter)
/// meets `earlier`: vote k of a prefix is in-network iff
/// in_network(prefix.first(k), prefix[k], network).
[[nodiscard]] bool in_network(std::span<const platform::UserId> earlier,
                              platform::UserId voter,
                              const graph::Digraph& network);

/// out[m-1] = influence after the first m votes of `prefix` — the users in
/// the union of those voters' fan rows who have not voted — for
/// m = 1 .. out.size() <= prefix.size(). One first-cover pass over the fan
/// rows on a per-thread, epoch-stamped u32 array that no call clears.
///
/// `fan_of_earlier`, when not empty, must be out.size() long: entry k is set
/// iff in_network(prefix.first(k), prefix[k], network). The same pass gives
/// it: voter k is a fan of an earlier voter iff the first fan row that
/// holds it belongs to a voter before k. A voter outside the graph is never
/// set; a repeated voter is judged against every voter before that repeat,
/// its own first vote included. Throws std::invalid_argument when out is
/// longer than the prefix or fan_of_earlier has any other nonzero length.
void influence_curve(std::span<const platform::UserId> prefix,
                     const graph::Digraph& network,
                     std::span<std::uint32_t> out,
                     std::span<bool> fan_of_earlier = {});

}  // namespace digg::core

#pragma once
// Helpers shared by the tests: votes for hand-made stories, and
// brute-force references for queries the library answers by faster means.

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>

#include "src/digg/types.h"
#include "src/graph/digraph.h"

namespace digg::test {

/// Appends a vote to a hand-built story. Throws std::invalid_argument on
/// what no loader accepts: a first vote that is not the submitter's digg,
/// a vote earlier than the last one, or a repeated voter.
inline void add_vote(platform::Story& story, platform::UserId user,
                     platform::Minutes time) {
  if (story.voters.empty()) {
    if (user != story.submitter)
      throw std::invalid_argument(
          "add_vote: first vote must be the submitter's digg");
  } else {
    if (time < story.times.back())
      throw std::invalid_argument("add_vote: votes must be chronological");
    if (std::find(story.voters.begin(), story.voters.end(), user) !=
        story.voters.end())
      throw std::invalid_argument("add_vote: duplicate voter");
  }
  story.voters.push_back(user);
  story.times.push_back(time);
}

/// True if the edge u -> v exists (u lists v as a friend).
inline bool has_edge(const graph::Digraph& g, graph::NodeId u,
                     graph::NodeId v) {
  const auto row = g.friends(u);
  return std::binary_search(row.begin(), row.end(), v);
}

/// Influence after the first `votes_counted` votes (the submitter's digg
/// included), by set arithmetic: the fans of those voters, less the voters.
/// The reference for core::influence_profile and core::influence_curve.
inline std::size_t influence_after(const platform::StoryView& story,
                                   const graph::Digraph& network,
                                   std::size_t votes_counted) {
  const auto voters = story.voters().first(
      std::min(votes_counted, story.vote_count()));
  std::set<platform::UserId> watchers;
  for (const platform::UserId v : voters)
    if (v < network.node_count())
      for (const graph::NodeId fan : network.fans(v)) watchers.insert(fan);
  for (const platform::UserId v : voters) watchers.erase(v);
  return watchers.size();
}

}  // namespace digg::test

#pragma once
// Helpers shared by the tests: votes for hand-made stories, brute-force
// references for queries the library answers by faster means, and the
// digest that pins a generated corpus.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/data/corpus.h"
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

namespace detail {

inline void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
}

template <typename T>
void mix(std::uint64_t& h, const T& value) {
  mix_bytes(h, &value, sizeof value);
}

}  // namespace detail

/// FNV-1a fold of every story's submitter, submission time, quality, phase,
/// promotion time and vote columns, in id order, plus the top-user ranking.
/// Equal digests mean the same corpus, whichever path built or loaded it.
inline std::uint64_t corpus_digest(const data::Corpus& corpus) {
  using detail::mix;
  using detail::mix_bytes;
  std::vector<const data::Story*> stories;
  for (const auto* list : {&corpus.front_page, &corpus.upcoming})
    for (const data::Story& s : *list) stories.push_back(&s);
  std::ranges::sort(stories, {}, [](const data::Story* s) { return s->id; });
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const data::Story* s : stories) {
    mix(h, s->id);
    mix(h, s->submitter);
    mix(h, s->submitted_at);
    mix(h, s->quality);
    mix(h, static_cast<std::uint8_t>(s->phase));
    mix(h, static_cast<std::uint8_t>(s->promoted() ? 1 : 0));
    mix(h, s->promoted_at.value_or(0.0));
    mix(h, static_cast<std::uint64_t>(s->vote_count()));
    mix_bytes(h, s->voters().data(), s->voters().size_bytes());
    mix_bytes(h, s->times().data(), s->times().size_bytes());
  }
  for (const platform::UserId u : corpus.top_users) mix(h, u);
  return h;
}

}  // namespace digg::test

#include "src/core/prefix_visibility.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace digg::core {
namespace {

// During a call whose epoch starts at `base`, cover[u] - base is the index
// of the first voter whose fan row holds u, valid iff cover[u] >= base; a
// call over n votes claims stamps [base, base + n).
thread_local std::vector<std::uint32_t> cover;
thread_local std::uint32_t base = 1;

}  // namespace

bool in_network(std::span<const platform::UserId> earlier,
                platform::UserId voter, const graph::Digraph& network) {
  if (voter >= network.node_count()) return false;
  const auto friends = network.friends(voter);
  return std::any_of(earlier.begin(), earlier.end(), [&](platform::UserId u) {
    return std::binary_search(friends.begin(), friends.end(), u);
  });
}

void influence_curve(std::span<const platform::UserId> prefix,
                     const graph::Digraph& network,
                     std::span<std::uint32_t> out,
                     std::span<bool> fan_of_earlier) {
  const std::size_t n = out.size();
  if (n > prefix.size())
    throw std::invalid_argument("influence_curve: curve longer than prefix");
  if (!fan_of_earlier.empty() && fan_of_earlier.size() != n)
    throw std::invalid_argument(
        "influence_curve: in-network flags and curve differ in length");
  const std::size_t users = network.node_count();
  if (cover.size() < users) cover.resize(users, 0);
  if (n >= std::numeric_limits<std::uint32_t>::max() - base) {
    std::fill(cover.begin(), cover.end(), 0);
    base = 1;
  }
  // out[i] = fans first exposed by voter i.
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t fresh = 0;  // a local: out and cover may alias
    if (prefix[i] < users)
      for (const platform::UserId fan : network.fans(prefix[i]))
        if (cover[fan] < base) {
          cover[fan] = static_cast<std::uint32_t>(base + i);
          ++fresh;
        }
    out[i] = fresh;
  }
  // Voter k is in-network iff the first voter whose fan row holds it comes
  // before k. Read before the loop below zeroes the stamps of voters.
  for (std::size_t k = 0; k < fan_of_earlier.size(); ++k) {
    const platform::UserId voter = prefix[k];
    fan_of_earlier[k] =
        voter < users && cover[voter] >= base && cover[voter] - base < k;
  }
  // A voter leaves the count from the first length at which it has been
  // both exposed and counted as a voter. An entry may wrap below zero; the
  // running sum never does, so unsigned arithmetic stays exact.
  for (std::size_t j = 0; j < n; ++j) {
    const platform::UserId voter = prefix[j];
    if (voter >= users || cover[voter] < base) continue;
    out[std::max<std::size_t>(j, cover[voter] - base)] -= 1;
    cover[voter] = 0;  // a repeated voter leaves once
  }
  std::partial_sum(out.begin(), out.end(), out.begin());
  base += static_cast<std::uint32_t>(n);
}

}  // namespace digg::core

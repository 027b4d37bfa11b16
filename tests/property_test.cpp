// Property-based suites: invariants checked across randomized inputs using
// parameterized gtest sweeps over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_set>

#include "src/core/cascade.h"
#include "src/core/influence.h"
#include "src/core/prefix_visibility.h"
#include "src/digg/friends_interface.h"
#include "src/digg/platform.h"
#include "src/digg/promotion.h"
#include "src/digg/story.h"
#include "src/graph/generators.h"
#include "src/stats/rng.h"
#include "src/stats/summary.h"
#include "tests/test_support.h"

namespace digg {
namespace {

using graph::Digraph;
using platform::Story;
using platform::UserId;

Digraph random_graph(stats::Rng& rng, std::size_t n = 60, double p = 0.06) {
  return graph::erdos_renyi(n, p, rng);
}

Story random_story(stats::Rng& rng, const Digraph& g, std::size_t votes) {
  const auto n = static_cast<std::int64_t>(g.node_count());
  std::vector<UserId> users(g.node_count());
  std::iota(users.begin(), users.end(), UserId{0});
  std::shuffle(users.begin(), users.end(), rng.engine());
  Story s = platform::make_story(0, users[0], 0.0, 0.5);
  const std::size_t count = std::min(votes, static_cast<std::size_t>(n) - 1);
  for (std::size_t k = 1; k <= count; ++k)
    test::add_vote(s, users[k], static_cast<double>(k));
  return s;
}

// Per-vote provenance through core::in_network: entry k-1 says whether
// vote k (the first vote after the submitter's digg is vote 1) was
// in-network.
std::vector<bool> vote_provenance(const platform::StoryView& s,
                                  const graph::Digraph& g) {
  std::vector<bool> out;
  const auto voters = s.voters();
  for (std::size_t k = 1; k < voters.size(); ++k)
    out.push_back(core::in_network(voters.first(k), voters[k], g));
  return out;
}

// The diversity-weighted vote mass Site::vote accumulates when `s` is
// replayed through a Site whose policy weighs fan votes `fan_vote_weight`.
double diversity_mass(const Story& s, const Digraph& g,
                      double fan_vote_weight) {
  const platform::Site site(
      g, std::vector<platform::UserProfile>(g.node_count()),
      std::make_unique<platform::DiversityPolicy>(1000.0, fan_vote_weight));
  platform::StoryState state =
      site.submit(s.id, s.submitter, s.quality, s.submitted_at);
  for (std::size_t k = 1; k < s.vote_count(); ++k)
    site.vote(state, s.voters[k], s.times[k]);
  return state.vote_mass;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- cascade / provenance invariants --------------------------------------

TEST_P(SeededProperty, InNetworkVotesMonotoneAndBounded) {
  stats::Rng rng(GetParam());
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 30);
  std::size_t prev = 0;
  for (std::size_t n = 0; n <= 35; ++n) {
    const std::size_t v = core::in_network_votes(s, g, n);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, n);
    EXPECT_LE(v, s.vote_count() - 1);
    prev = v;
  }
}

TEST_P(SeededProperty, CascadeProfileConsistentWithPointQueries) {
  stats::Rng rng(GetParam() * 7 + 1);
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 25);
  const std::vector<std::size_t> checkpoints = {0, 3, 6, 10, 20, 30};
  const auto profile = core::cascade_profile(s, g, checkpoints);
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    EXPECT_EQ(profile[i], core::in_network_votes(s, g, checkpoints[i]));
}

TEST_P(SeededProperty, ProvenanceMatchesBruteForceExposure) {
  stats::Rng rng(GetParam() * 13 + 5);
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 20);
  const auto prov = vote_provenance(s, g);
  // Brute force: vote k is in-network iff voter follows any prior voter.
  for (std::size_t k = 1; k < s.voters.size(); ++k) {
    const UserId voter = s.voters[k];
    bool exposed = false;
    for (std::size_t j = 0; j < k && !exposed; ++j) {
      exposed = test::has_edge(g, voter, s.voters[j]);
    }
    EXPECT_EQ(prov[k - 1], exposed) << "vote " << k;
  }
}

// --- influence / visibility invariants ------------------------------------

TEST_P(SeededProperty, VisibilitySetMatchesBruteForceRecompute) {
  stats::Rng rng(GetParam() * 3 + 2);
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 15);
  platform::VisibilitySet vis(g);
  std::unordered_set<UserId> voters;
  for (UserId user : s.voters) {
    vis.add_voter(user);
    voters.insert(user);
    // Brute force: union of fans of voters, minus voters.
    std::set<UserId> expected;
    for (UserId voter : voters) {
      for (UserId fan : g.fans(voter)) {
        if (!voters.count(fan)) expected.insert(fan);
      }
    }
    EXPECT_EQ(vis.influence(), expected.size());
    for (UserId w : expected) EXPECT_TRUE(vis.can_see(w));
  }
}

TEST_P(SeededProperty, InfluenceProfileMonotoneUntilVoterRemoval) {
  stats::Rng rng(GetParam() * 17 + 3);
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 20);
  // Influence after all votes equals the final visibility size and the
  // profile saturates beyond the record.
  const auto profile = core::influence_profile(s, g, {5, 21, 100});
  EXPECT_EQ(profile[1], profile[2]);
  EXPECT_EQ(profile[0], test::influence_after(s, g, 5));
  EXPECT_EQ(profile[1], test::influence_after(s, g, s.vote_count()));
}

// --- promotion invariants ---------------------------------------------------

TEST_P(SeededProperty, DiversityWeightedMassBoundedByVoteCount) {
  stats::Rng rng(GetParam() * 29 + 7);
  const Digraph g = random_graph(rng);
  const Story s = random_story(rng, g, 25);
  const double mass = diversity_mass(s, g, 0.4);
  EXPECT_LE(mass, static_cast<double>(s.vote_count()) + 1e-9);
  // Lower bound: submitter full + everything else at the fan weight.
  EXPECT_GE(mass,
            1.0 + 0.4 * static_cast<double>(s.vote_count() - 1) - 1e-9);
}

TEST_P(SeededProperty, DiversityMassDecreasesWithFanWeight) {
  stats::Rng rng(GetParam() * 31 + 11);
  const Digraph g = random_graph(rng, 60, 0.15);
  const Story s = random_story(rng, g, 25);
  EXPECT_GE(diversity_mass(s, g, 0.9), diversity_mass(s, g, 0.1));
}

// --- graph invariants -------------------------------------------------------

TEST_P(SeededProperty, DegreeSumsEqualEdgeCount) {
  stats::Rng rng(GetParam() * 41 + 13);
  const Digraph g = random_graph(rng, 80, 0.05);
  std::size_t out_sum = 0;
  std::size_t in_sum = 0;
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    out_sum += g.friend_count(u);
  for (auto d : g.in_degrees()) in_sum += d;
  EXPECT_EQ(out_sum, g.edge_count());
  EXPECT_EQ(in_sum, g.edge_count());
}

// --- summary invariants -----------------------------------------------------

TEST_P(SeededProperty, SummaryOrderingInvariants) {
  stats::Rng rng(GetParam() * 59 + 29);
  std::vector<double> values;
  const int n = static_cast<int>(rng.uniform_int(3, 200));
  for (int i = 0; i < n; ++i) values.push_back(rng.normal(0.0, 10.0));
  const stats::Summary s = stats::summarize(values);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_LE(s.min, s.trimmed_lo);
  EXPECT_LE(s.trimmed_hi, s.max);
  EXPECT_GE(s.stddev, 0.0);
}

TEST_P(SeededProperty, SpearmanInvariantUnderMonotoneTransform) {
  stats::Rng rng(GetParam() * 61 + 31);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(rng.uniform(0.0, 10.0));
    y.push_back(rng.uniform(0.0, 10.0));
  }
  const double base = stats::spearman(x, y);
  std::vector<double> x_cubed;
  for (double v : x) x_cubed.push_back(v * v * v);
  EXPECT_NEAR(stats::spearman(x_cubed, y), base, 1e-9);
}

}  // namespace
}  // namespace digg

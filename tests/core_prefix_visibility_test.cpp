// Oracle test for core/prefix_visibility.h: friends-row probes, the
// first-cover influence recount and its in-network flags must agree with
// the incremental VisibilitySet::add_voter fold on seeded random graphs and
// stories — per-vote provenance up to 31 votes (fig3b's 10/20/30), influence after
// every prefix length up to 21 (fig3a's 1/11/21), the Bayes watcher-exposure
// gap sum, stories shorter than every checkpoint, and a hub whose fan row
// crosses the HybridSet bitmap threshold. The routine side runs under
// runtime::parallel_map, so the per-thread stamp scratch is exercised from
// several threads at once.

#include "src/core/prefix_visibility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/core/cascade.h"
#include "src/core/influence.h"
#include "src/digg/friends_interface.h"
#include "src/digg/hybrid_set.h"
#include "src/digg/story.h"
#include "src/runtime/parallel.h"
#include "src/runtime/thread_pool.h"
#include "src/stats/rng.h"
#include "tests/test_support.h"

namespace digg::core {
namespace {

using platform::UserId;

constexpr std::size_t kUsers = 3000;
constexpr UserId kHub = 0;
constexpr std::size_t kHubFans = 400;
constexpr std::uint32_t kFitAt = 10;

// Sparse random follows plus one hub followed by kHubFans users, so a story
// the hub votes on unions a fan row past the bitmap threshold.
graph::Digraph hub_graph(stats::Rng& rng) {
  graph::DigraphBuilder b(kUsers);
  for (std::size_t e = 0; e < kUsers * 4; ++e) {
    const auto u = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
    const auto v = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
    if (u != v) b.add_follow(u, v);
  }
  for (std::size_t f = 1; f <= kHubFans; ++f)
    b.add_fan(kHub, static_cast<UserId>(f * 7 % kUsers));
  return b.build();
}

// Distinct voters, 1..40 votes (so some stories end before every
// checkpoint), the hub among them in about a third of the stories, and
// non-decreasing times.
platform::Story random_story(stats::Rng& rng, platform::StoryId id) {
  std::vector<UserId> users(kUsers - 1);
  std::iota(users.begin(), users.end(), UserId{1});
  std::shuffle(users.begin(), users.end(), rng.engine());
  const auto votes = static_cast<std::size_t>(rng.uniform_int(1, 40));
  users.resize(votes);
  if (rng.uniform_int(0, 2) == 0)
    users[static_cast<std::size_t>(rng.uniform_int(0, votes - 1))] = kHub;
  platform::Story s = platform::make_story(id, users[0], 0.0, 0.5);
  double t = 0.0;
  for (std::size_t k = 1; k < votes; ++k) {
    t += static_cast<double>(rng.uniform_int(0, 3)) * 0.75;
    test::add_vote(s, users[k], t);
  }
  return s;
}

struct Visibility {
  std::vector<bool> in_network;         // vote k >= 1, index k - 1
  std::vector<std::uint32_t> influence;  // after m votes, index m - 1
  double gap_sum = 0.0;                 // Σ influence before vote k · gap
  std::vector<bool> flags;  // influence_curve's in-network output, vote k
};

// influence_curve over the first n voters, with its in-network flags.
std::vector<bool> curve_flags(std::span<const UserId> voters,
                              const graph::Digraph& g,
                              std::span<std::uint32_t> curve) {
  const auto buf = std::make_unique<bool[]>(curve.size());
  influence_curve(voters, g, curve, {buf.get(), curve.size()});
  return std::vector<bool>(buf.get(), buf.get() + curve.size());
}

// The oracle: the incremental set fold the streaming engine used to run.
Visibility fold(const platform::Story& s, const graph::Digraph& g) {
  Visibility out;
  platform::VisibilitySet vis(g);
  for (std::size_t k = 0; k < s.voters.size(); ++k) {
    if (k >= 1) out.in_network.push_back(vis.can_see(s.voters[k]));
    if (k >= 1 && k <= kFitAt)
      out.gap_sum += static_cast<double>(vis.influence()) *
                     (s.times[k] - s.times[k - 1]);
    vis.add_voter(s.voters[k]);
    out.influence.push_back(static_cast<std::uint32_t>(vis.influence()));
  }
  return out;
}

// The routine under test, reading the prefix the way the engine does.
Visibility recount(const platform::Story& s, const graph::Digraph& g) {
  Visibility out;
  const std::span<const UserId> voters = s.voters;
  for (std::size_t k = 1; k < voters.size(); ++k)
    out.in_network.push_back(in_network(voters.first(k), voters[k], g));
  out.influence.resize(voters.size());
  out.flags = curve_flags(voters, g, out.influence);
  for (std::size_t k = 1; k < voters.size() && k <= kFitAt; ++k)
    out.gap_sum += static_cast<double>(out.influence[k - 1]) *
                   (s.times[k] - s.times[k - 1]);
  return out;
}

class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned threads) {
    runtime::set_default_threads(threads);
  }
  ~ThreadGuard() { runtime::set_default_threads(0); }
};

TEST(PrefixVisibilityOracle, MatchesTheVisibilitySetFold) {
  ThreadGuard threads(4);
  std::size_t hub_stories = 0;
  std::size_t short_stories = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    stats::Rng rng(seed);
    const graph::Digraph g = hub_graph(rng);
    ASSERT_GT(g.fan_count(kHub),
              platform::HybridSet::promote_threshold(kUsers));
    std::vector<platform::Story> stories;
    for (platform::StoryId id = 0; id < 200; ++id)
      stories.push_back(random_story(rng, id));
    const auto got = runtime::parallel_map<Visibility>(
        stories.size(), [&](std::size_t i) { return recount(stories[i], g); });
    for (std::size_t i = 0; i < stories.size(); ++i) {
      SCOPED_TRACE("story " + std::to_string(i));
      const platform::Story& s = stories[i];
      const Visibility want = fold(s, g);
      EXPECT_EQ(got[i].in_network, want.in_network);
      EXPECT_EQ(got[i].influence, want.influence);
      // The one-pass flags: the submitter's digg is never in-network, and
      // vote k >= 1 is iff the fold saw the voter before adding them.
      ASSERT_EQ(got[i].flags.size(), s.vote_count());
      EXPECT_FALSE(got[i].flags[0]);
      EXPECT_TRUE(std::equal(want.in_network.begin(), want.in_network.end(),
                             got[i].flags.begin() + 1));
      EXPECT_EQ(got[i].gap_sum, want.gap_sum);  // bit-identical, same order
      // The batch profiles at the paper's checkpoints, saturating over
      // stories shorter than them.
      const auto cascade = cascade_profile(s, g, {10, 20, 30});
      const auto influence = influence_profile(s, g, {1, 11, 21});
      for (std::size_t j = 0; j < 3; ++j) {
        const std::size_t votes = std::min<std::size_t>(
            10 * (j + 1), want.in_network.size());
        EXPECT_EQ(cascade[j],
                  static_cast<std::size_t>(std::count(
                      want.in_network.begin(),
                      want.in_network.begin() + static_cast<long>(votes),
                      true)));
        const std::size_t m =
            std::min<std::size_t>(10 * j + 1, want.influence.size());
        EXPECT_EQ(influence[j], want.influence[m - 1]);
      }
      // A curve shorter than the prefix (the engine's checkpoint recount)
      // agrees with the full one.
      const std::size_t cut = std::min<std::size_t>(21, s.vote_count());
      std::vector<std::uint32_t> head(cut);
      const std::vector<bool> head_flags = curve_flags(s.voters, g, head);
      EXPECT_TRUE(std::equal(head.begin(), head.end(), want.influence.begin()));
      EXPECT_TRUE(std::equal(head_flags.begin(), head_flags.end(),
                             got[i].flags.begin()));
      if (std::find(s.voters.begin(), s.voters.end(), kHub) !=
          s.voters.end())
        ++hub_stories;
      if (s.vote_count() <= 6) ++short_stories;
    }
  }
  EXPECT_GT(hub_stories, 0u);
  EXPECT_GT(short_stories, 0u);
}

TEST(PrefixVisibility, EmptyPrefixAndOutOfGraphVoters) {
  stats::Rng rng(11);
  const graph::Digraph g = hub_graph(rng);
  std::vector<std::uint32_t> none;
  influence_curve({}, g, none);
  EXPECT_TRUE(curve_flags({}, g, none).empty());
  const std::vector<UserId> outside = {static_cast<UserId>(kUsers + 5)};
  EXPECT_FALSE(in_network(outside, kHub, g));
  EXPECT_FALSE(in_network(std::vector<UserId>{kHub},
                          static_cast<UserId>(kUsers + 5), g));
  const std::vector<UserId> prefix = {kHub, static_cast<UserId>(kUsers + 5)};
  std::vector<std::uint32_t> curve(prefix.size());
  influence_curve(prefix, g, curve);
  EXPECT_EQ(curve[0], g.fan_count(kHub));
  EXPECT_EQ(curve[1], g.fan_count(kHub));
  EXPECT_EQ(curve_flags(prefix, g, curve), (std::vector<bool>{false, false}));
  std::vector<std::uint32_t> too_long(prefix.size() + 1);
  EXPECT_THROW(influence_curve(prefix, g, too_long), std::invalid_argument);
  bool short_flags[1];
  EXPECT_THROW(influence_curve(prefix, g, curve, short_flags),
               std::invalid_argument);

  // Repeated voters and ids at and past node_count, where the VisibilitySet
  // oracle cannot go (it refuses both): the flags must still be
  // in_network's answer for every vote, and the curve must count each user
  // once. fans(0) = {1, 2}, fans(1) = {3}, fans(3) = {0}.
  {
    graph::DigraphBuilder b(6);
    b.add_fan(0, 1);
    b.add_fan(0, 2);
    b.add_fan(1, 3);
    b.add_fan(3, 0);
    const graph::Digraph small = b.build();
    const std::vector<UserId> votes = {0, 3, 1, 6, 0, 3, 9, 2};
    // Vote 4 repeats user 0, whose first vote was not in-network: user 3
    // voted in between, and 0 is a fan of 3. User 3's repeat sees user 1.
    const std::vector<bool> want = {false, false, true, false,
                                    true,  true,  false, true};
    for (std::size_t k = 0; k < votes.size(); ++k)
      ASSERT_EQ(in_network(std::span(votes).first(k), votes[k], small),
                want[k])
          << "vote " << k;
    std::vector<std::uint32_t> audience(votes.size());
    EXPECT_EQ(curve_flags(votes, small, audience), want);
    EXPECT_EQ(audience,
              (std::vector<std::uint32_t>{2, 2, 1, 1, 1, 1, 1, 0}));
  }

  // Digraph::from_views accepts a self-loop (only the builder refuses
  // one). A voter whose own fan row is the first to hold them is not a fan
  // of an earlier voter. 0 -> 0 and 1 -> 0: fans(0) = {0, 1}.
  {
    const std::vector<std::size_t> out_offsets = {0, 1, 2};
    const std::vector<UserId> out_targets = {0, 0};
    const std::vector<std::size_t> in_offsets = {0, 2, 2};
    const std::vector<UserId> in_sources = {0, 1};
    const graph::Digraph looped = graph::Digraph::from_views(
        out_offsets, out_targets, in_offsets, in_sources);
    const std::vector<UserId> votes = {0, 1};
    const std::vector<bool> want = {false, true};
    for (std::size_t k = 0; k < votes.size(); ++k)
      ASSERT_EQ(in_network(std::span(votes).first(k), votes[k], looped),
                want[k]);
    std::vector<std::uint32_t> audience(votes.size());
    EXPECT_EQ(curve_flags(votes, looped, audience), want);
    EXPECT_EQ(audience, (std::vector<std::uint32_t>{1, 0}));
  }
}

}  // namespace
}  // namespace digg::core

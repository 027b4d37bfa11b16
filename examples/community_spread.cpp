// Community spread demo (§5.1 + §6): the two spreading mechanisms on an
// explicitly modular network. A story seeded inside a tight community with
// high community appeal saturates that community and stalls; a broadly
// appealing story seeded anywhere keeps finding independent adopters. The
// same contrast drives the paper's in-network early-vote signal.

#include <cstdio>

#include "bench/common.h"
#include "src/core/cascade.h"
#include "src/digg/platform.h"
#include "src/dynamics/cascade_sim.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/community.h"
#include "src/graph/generators.h"
#include "src/obs/log.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  using namespace digg;
  // Seed via the shared CLI grammar (the modular network is hand-built, so
  // no scenario/corpus generation here).
  bench::CliOptions opts = bench::parse_cli(argc, argv);
  if (argc <= 1) opts.seed = 11;  // this demo's historical default
  std::printf("== Community spread: narrow vs broad stories ==\n\n");

  // A modular fan network: 8 communities of 500 users.
  stats::Rng rng(opts.seed);
  graph::PlantedPartitionParams net_params;
  net_params.node_count = 4000;
  net_params.communities = 8;
  net_params.p_in = 0.05;
  net_params.p_out = 0.001;
  const graph::Digraph network = graph::planted_partition(net_params, rng);
  const auto truth = graph::planted_communities(net_params);
  obs::log_info("community_spread", "modular network built",
                {{"users", network.node_count()},
                 {"edges", network.edge_count()},
                 {"modularity", graph::modularity(network, truth)}});

  // Abstract cascade view first: activation spread from one seed.
  dynamics::CascadeParams cascade;
  cascade.activation_prob = 0.06;
  stats::Rng c_rng = rng.fork();
  double total = 0.0, inside = 0.0;
  constexpr int kTrials = 25;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto seed = static_cast<graph::NodeId>(
        c_rng.uniform_int(0, static_cast<std::int64_t>(network.node_count()) - 1));
    const auto result =
        dynamics::independent_cascade(network, {seed}, cascade, c_rng);
    total += static_cast<double>(result.total_activated);
    for (graph::NodeId u = 0; u < network.node_count(); ++u) {
      if (result.activated[u] && truth[u] == truth[seed]) inside += 1.0;
    }
  }
  std::printf(
      "independent cascades (25 random seeds): mean %.0f users activated,\n"
      "%.0f%% inside the seed's own community (community size 500)\n\n",
      total / kTrials, 100.0 * inside / total);

  // Full platform view: narrow vs broad story from the same submitter.
  const auto users = platform::generate_population(
      platform::PopulationParams{.user_count = net_params.node_count}, rng);
  const platform::Site site(network, users, platform::make_june2006_policy());
  dynamics::VoteModelParams vm;
  vm.step = 2.0;
  const dynamics::VoteSimulator sim(site, vm, rng.fork());

  struct Case {
    const char* label;
    dynamics::StoryTraits traits;
  };
  const Case cases[] = {
      {"narrow (community 0.9 / general 0.05)", {0.05, 0.9}},
      {"broad  (community 0.3 / general 0.7)", {0.7, 0.3}},
  };
  stats::TextTable table({"story", "final votes", "promoted",
                          "in-network of first 10", "voters in submitter's community"});
  platform::StoryId next_id = 0;
  for (const Case& c : cases) {
    platform::StoryState state =
        site.submit(next_id++, /*submitter=*/0, c.traits.general, 0.0);
    sim.run_story(state, c.traits);
    const platform::Story& story = state.story;
    std::size_t same_community = 0;
    for (platform::UserId voter : story.voters)
      if (truth[voter] == truth[0]) ++same_community;
    table.add_row(
        {c.label, stats::fmt(static_cast<std::int64_t>(story.vote_count())),
         story.promoted() ? "yes" : "no",
         stats::fmt(static_cast<std::int64_t>(
             core::in_network_votes(story, network, 10))),
         stats::fmt_pct(static_cast<double>(same_community) /
                        static_cast<double>(story.vote_count()))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "the narrow story's votes come from inside the community (high early\n"
      "in-network count); the broad story spreads from independent seeds —\n"
      "the paper's two mechanisms (§5.1), here with ground-truth communities.\n");
  return 0;
}

// Promotion-policy comparison: the September-2006 "digging diversity"
// change (§5). The same submission stream is simulated on two identical
// platforms that differ only in promotion rule:
//   - June 2006:      promote at 43 votes (count only);
//   - September 2006: promote at diversity-weighted mass 43, where votes
//     from fans of prior voters count less.
// The diversity rule specifically suppresses fan-driven (dull top-user)
// promotions — exactly what the paper's §5.2 predictor achieves by
// classification instead.

#include <cstdio>
#include <cstring>
#include <memory>

#include "bench/common.h"
#include "src/digg/platform.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
#include "src/obs/log.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  using namespace digg;

  // Seed via the shared CLI grammar (no corpus generation here — the two
  // platforms below share one hand-built world).
  bench::CliOptions opts = bench::parse_cli(argc, argv);
  if (argc <= 1) opts.seed = 2026;  // this demo's historical default

  // Shared world: one fan network, one population, one submission stream.
  stats::Rng rng(opts.seed);
  graph::PreferentialAttachmentParams net_params;
  net_params.node_count = 12000;
  net_params.mean_out_degree = 4.0;
  net_params.smoothing = 0.6;
  const graph::Digraph network =
      graph::preferential_attachment(net_params, rng);
  platform::PopulationParams pop;
  pop.user_count = net_params.node_count;
  const auto users = platform::generate_population(pop, rng);

  struct Submission {
    platform::UserId submitter;
    dynamics::StoryTraits traits;
    bool dull_top;
  };
  std::vector<Submission> submissions;
  for (int i = 0; i < 400; ++i) {
    Submission s;
    const bool top = rng.bernoulli(0.5);
    s.submitter = top ? static_cast<platform::UserId>(rng.uniform_int(0, 99))
                      : static_cast<platform::UserId>(
                            rng.uniform_int(0, 11999));
    const bool dull = rng.bernoulli(top ? 0.6 : 0.25);
    s.traits.general = dull ? rng.uniform(0.02, 0.13) : rng.uniform(0.2, 0.8);
    s.traits.community = std::min(
        1.0, 0.2 + 0.5 * s.traits.general + (top ? 0.5 : 0.0));
    s.dull_top = top && dull;
    submissions.push_back(s);
  }

  auto run_with_policy =
      [&](std::unique_ptr<platform::PromotionPolicy> policy) {
        const platform::Site site(network, users, std::move(policy));
        dynamics::VoteModelParams params;
        params.step = 2.0;
        const dynamics::VoteSimulator sim(site, params, stats::Rng(7));
        std::vector<dynamics::Submission> batch;
        for (const Submission& s : submissions)
          batch.emplace_back(s.submitter, s.traits);
        const std::vector<dynamics::SimulatedStory> runs =
            dynamics::simulate_batch(site, sim, batch, 2.0);
        std::size_t promoted = 0;
        std::size_t dull_top_promoted = 0;
        std::size_t interesting_promoted = 0;
        for (std::size_t k = 0; k < runs.size(); ++k) {
          const platform::Story& story = runs[k].story;
          if (!story.promoted()) continue;
          ++promoted;
          if (submissions[k].dull_top) ++dull_top_promoted;
          if (story.vote_count() > 520) ++interesting_promoted;
        }
        struct Result {
          std::size_t promoted, dull_top_promoted, interesting_promoted;
        };
        return Result{promoted, dull_top_promoted, interesting_promoted};
      };

  std::printf("== Promotion policy comparison (June vs September 2006) ==\n");
  obs::log_info("promotion_comparison", "world built",
                {{"users", network.node_count()},
                 {"submissions", submissions.size()},
                 {"top_user_share", 0.5}});

  const auto june = run_with_policy(platform::make_june2006_policy());
  const auto sept = run_with_policy(platform::make_september2006_policy());
  const auto rate = run_with_policy(
      std::make_unique<platform::VoteRatePolicy>(43, 10, 6.0 * 60.0));

  stats::TextTable table({"policy", "promoted", "dull top-user promotions",
                          "front-page precision"});
  auto add = [&](const char* name, const auto& r) {
    table.add_row({name, stats::fmt(static_cast<std::int64_t>(r.promoted)),
                   stats::fmt(static_cast<std::int64_t>(r.dull_top_promoted)),
                   r.promoted == 0
                       ? "n/a"
                       : stats::fmt_pct(
                             static_cast<double>(r.interesting_promoted) /
                             static_cast<double>(r.promoted))});
  };
  add("June 2006 (43 votes)", june);
  add("count + rate", rate);
  add("Sept 2006 (diversity-weighted)", sept);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: the diversity rule promotes fewer dull top-user stories,\n"
      "raising front-page precision — the paper argues the same signal is\n"
      "better used for *prediction* than for discounting votes.\n");
  return 0;
}

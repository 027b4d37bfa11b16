// The ablations: each builds its own graphs or corpora from the seed, so
// none of them reads the scenario's shared corpus.

#include "bench/figures.h"
#include "src/core/ablation.h"
#include "src/core/cascade.h"
#include "src/dynamics/cascade_sim.h"
#include "src/dynamics/epidemic.h"
#include "src/dynamics/site_sim.h"
#include "src/graph/community.h"
#include "src/graph/generators.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace digg::figures {

namespace {

struct RunSummary {
  std::size_t stories = 0;
  std::size_t promoted = 0;
  double median_promoted_votes = 0.0;
  double spearman_v10_final = 0.0;
};

RunSummary summarize(const platform::Platform& plat,
                     const graph::Digraph& net) {
  RunSummary out;
  out.stories = plat.story_count();
  std::vector<double> v10s;
  std::vector<double> finals;  // of the promoted stories
  for (platform::StoryId id = 0; id < plat.story_count(); ++id) {
    const platform::Story& s = plat.story(id);
    if (!s.promoted()) continue;
    ++out.promoted;
    v10s.push_back(
        static_cast<double>(core::in_network_votes(s, net, 10)));
    finals.push_back(static_cast<double>(s.vote_count()));
  }
  out.median_promoted_votes = stats::summarize(finals).median;
  if (finals.size() >= 3) {
    try {
      out.spearman_v10_final = stats::spearman(v10s, finals);
    } catch (const std::invalid_argument&) {
    }
  }
  return out;
}

}  // namespace

// Ablation: independent per-story simulation (the calibrated generator's
// assumption) vs whole-site simulation with a shared front-page attention
// budget. If the independence assumption were badly wrong, the headline
// inverse v10 relation would not survive attention competition; this
// figure shows it does, and quantifies what competition changes (total
// volume, per-story votes, promotion share).
void ablation_attention(const bench::CliOptions& opts) {
  const std::uint64_t seed = opts.seed;
  std::printf("seed=%llu\n\n", static_cast<unsigned long long>(seed));

  stats::Rng net_rng(seed);
  graph::PreferentialAttachmentParams net_params;
  net_params.node_count = 20000;
  net_params.mean_out_degree = 4.0;
  const graph::Digraph net =
      graph::preferential_attachment(net_params, net_rng);
  stats::Rng pop_rng(seed + 1);
  platform::PopulationParams pop;
  pop.user_count = net_params.node_count;
  const auto users = platform::generate_population(pop, pop_rng);

  const dynamics::TraitsSampler traits = [](dynamics::UserId submitter,
                                            stats::Rng& rng) {
    dynamics::StoryTraits t;
    t.general = rng.uniform(0.03, 0.8);
    t.community = std::min(
        1.0, 0.2 + 0.5 * t.general + (submitter < 100 ? 0.4 : 0.0));
    return t;
  };

  stats::TextTable table({"attention budget (impressions/day)", "stories",
                          "promoted", "median promoted votes",
                          "Spearman(v10, final)"});
  for (const double budget : {40000.0, 160000.0, 640000.0}) {
    platform::Platform plat(
        net, users, std::make_unique<platform::VoteRatePolicy>(25, 8, 360.0));
    dynamics::SiteParams params;
    params.submissions_per_day = 250.0;
    params.front_page_impressions_per_day = budget;
    params.duration = 3.0 * platform::kMinutesPerDay;
    params.step = 2.0;
    dynamics::SiteSimulator sim(plat, params, traits, stats::Rng(seed + 7));
    sim.run();
    const RunSummary s = summarize(plat, net);
    table.add_row({stats::fmt(budget, 0),
                   stats::fmt(static_cast<std::int64_t>(s.stories)),
                   stats::fmt(static_cast<std::int64_t>(s.promoted)),
                   stats::fmt(s.median_promoted_votes, 0),
                   stats::fmt(s.spearman_v10_final, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: per-story vote totals scale with the attention\n"
      "budget, and the inverse v10 signal strengthens as attention grows —\n"
      "when attention is starved, finals compress toward the promotion\n"
      "threshold and early provenance loses its predictive value. The\n"
      "paper's 2006 Digg sits in the attention-rich regime (front-page\n"
      "stories gathered hundreds to thousands of votes).\n");
}

// Section 6 future work, experiment 1: epidemic thresholds on scale-free vs
// homogeneous networks. Pastor-Satorras & Vespignani: the SIS threshold
// λ_c = <k>/<k²> vanishes for power-law degree distributions, unlike
// Erdős–Rényi graphs. We sweep the endemic prevalence over the effective
// spreading rate on both a preferential-attachment fan network and a
// degree-matched ER graph.
void ablation_epidemic(const bench::CliOptions& opts) {
  std::printf("seed=%llu\n\n", static_cast<unsigned long long>(opts.seed));

  stats::Rng rng(opts.seed);
  graph::PreferentialAttachmentParams pa;
  pa.node_count = 4000;
  pa.mean_out_degree = 4.0;
  const graph::Digraph scale_free = graph::preferential_attachment(pa, rng);
  const double mean_degree =
      2.0 * static_cast<double>(scale_free.edge_count()) /
      static_cast<double>(scale_free.node_count());
  const graph::Digraph er = graph::erdos_renyi(
      4000, mean_degree / 2.0 / 3999.0, rng);

  std::printf("mean-field threshold <k>/<k^2>: scale-free %.4f, ER %.4f\n",
              dynamics::sis_threshold_estimate(scale_free),
              dynamics::sis_threshold_estimate(er));
  std::printf("(paper/§6 expectation: scale-free threshold far below ER)\n\n");

  const std::vector<double> lambdas = {0.01, 0.02, 0.05, 0.1, 0.2, 0.4};
  stats::Rng rng_sf = rng.fork();
  stats::Rng rng_er = rng.fork();
  const auto sf_sweep = dynamics::prevalence_sweep(
      scale_free, lambdas, /*recovery=*/0.5, /*trials=*/3, /*max_steps=*/200,
      rng_sf);
  const auto er_sweep = dynamics::prevalence_sweep(
      er, lambdas, 0.5, 3, 200, rng_er);

  stats::TextTable table(
      {"lambda", "prevalence (scale-free)", "prevalence (ER)"});
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    table.add_row({stats::fmt(lambdas[i], 2),
                   stats::fmt_pct(sf_sweep[i].second),
                   stats::fmt_pct(er_sweep[i].second)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: the scale-free network sustains the epidemic at\n"
      "small lambda where the ER graph does not (vanishing threshold).\n");
}

// Ablation of the two spreading mechanisms (§5.1 / DESIGN.md): regenerate
// the corpus with the fan channel or the discovery channel disabled and
// compare what remains of the paper's phenomena.
void ablation_mechanisms(const bench::CliOptions& opts) {
  std::printf("seed=%llu (three corpora, identical except the ablation)\n\n",
              static_cast<unsigned long long>(opts.seed));

  data::SyntheticParams params;
  params.story_count = 600;  // smaller world: three full generations
  const core::MechanismAblationResult r =
      core::mechanism_ablation(params, opts.seed);

  stats::TextTable table({"variant", "front page", "upcoming", "median final",
                          "interesting frac", "mean v10",
                          "Spearman(v10, final)"});
  auto add = [&](const core::AblationVariant& v) {
    table.add_row({v.name, stats::fmt(static_cast<std::int64_t>(v.front_page)),
                   stats::fmt(static_cast<std::int64_t>(v.upcoming)),
                   stats::fmt(v.median_final_votes, 0),
                   stats::fmt_pct(v.interesting_fraction),
                   stats::fmt(v.mean_v10, 1),
                   stats::fmt(v.spearman_v10_final, 2)});
  };
  add(r.full);
  add(r.no_fan_channel);
  add(r.no_discovery);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape:\n"
      "  no fan channel -> promotions collapse (the network does the\n"
      "    promoting, §1) and the v10 signal disappears (mean v10 ~ 0);\n"
      "  no discovery   -> only community-driven stories survive, early\n"
      "    votes are almost all in-network, and final counts shrink toward\n"
      "    community size regardless of general appeal.\n");
}

// Section 6 future work, experiment 2: influence cascades on modular
// networks (Galstyan & Cohen). On a planted-partition graph, a cascade
// seeded inside one community saturates that community before (maybe)
// jumping across — mirroring the paper's narrow-community spreading. We
// sweep the inter-community edge probability and report cascade reach,
// plus detected-community quality, plus the two-mechanism vote model run on
// modular vs non-modular networks.
void ablation_modularity(const bench::CliOptions& opts) {
  std::printf("seed=%llu\n\n", static_cast<unsigned long long>(opts.seed));

  stats::Rng rng(opts.seed);
  stats::TextTable table({"p_out/p_in", "modularity Q", "detected Rand idx",
                          "mean cascade reach", "global cascade prob"});
  for (const double ratio : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    graph::PlantedPartitionParams params;
    params.node_count = 1200;
    params.communities = 6;
    params.p_in = 0.03;
    params.p_out = params.p_in * ratio;
    const graph::Digraph g = graph::planted_partition(params, rng);
    const auto truth = graph::planted_communities(params);

    stats::Rng lp_rng = rng.fork();
    const auto detected = graph::label_propagation(g, lp_rng);
    const double q = graph::modularity(g, truth);
    const double rand_idx = graph::rand_index(detected, truth);

    dynamics::CascadeParams cascade;
    cascade.activation_prob = 0.06;
    stats::Rng c_rng = rng.fork();
    const double mean_reach =
        dynamics::mean_cascade_size(g, cascade, 100, c_rng) /
        static_cast<double>(params.node_count);
    stats::Rng g_rng = rng.fork();
    const double global_prob = dynamics::global_cascade_probability(
        g, cascade, 100, /*global_fraction=*/0.5, g_rng);

    table.add_row({stats::fmt(ratio, 2), stats::fmt(q, 3),
                   stats::fmt(rand_idx, 3), stats::fmt_pct(mean_reach),
                   stats::fmt_pct(global_prob)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: with strong modularity (small p_out/p_in) cascades\n"
      "stall at roughly one community (~17%% reach here) and rarely go\n"
      "global; as communities blur, reach and global probability rise —\n"
      "the structural mechanism behind narrow-community stories (§5.1).\n");
}

}  // namespace digg::figures

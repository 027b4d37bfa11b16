// Every figure of the reproduction from one executable. The corpus figures
// share the scenario's corpus, generated once; fig7 and the ablations build
// their own corpora and graphs.
//
// Usage: figures [seed] [--scenario <name>] [--json <path>] [--smoke]
//                [--figure <name>]
//   --figure <name>  print one figure (a kFigures name); default: all of
//                    them, in kFigures order. The ablations ignore
//                    --scenario and --smoke.
// A figure that throws prints `error: <figure>: <what>` on stderr; the rest
// still run and the exit status is 1.

#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "bench/figures.h"

namespace {

using namespace digg;

struct Figure {
  const char* name;
  const char* title;
  // Exactly one is set: a corpus figure reads the shared corpus.
  void (*from_corpus)(const bench::Context&);
  void (*standalone)(const bench::CliOptions&);
};

constexpr Figure kFigures[] = {
    {"fig1_vote_timeseries", "Figure 1: vote time series of front-page stories",
     figures::fig1_vote_timeseries, nullptr},
    {"fig1_novelty_fit", "Novelty decay: fitted post-promotion half-lives",
     figures::fig1_novelty_fit, nullptr},
    {"fig2a_vote_histogram",
     "Figure 2a: histogram of final votes per front-page story",
     figures::fig2a_vote_histogram, nullptr},
    {"fig2b_user_activity",
     "Figure 2b: per-user submission and vote activity distributions",
     figures::fig2b_user_activity, nullptr},
    {"fig3a_influence", "Figure 3a: story influence via the Friends interface",
     figures::fig3a_influence, nullptr},
    {"fig3b_cascades", "Figure 3b: cascade sizes (in-network votes)",
     figures::fig3b_cascades, nullptr},
    {"fig4_innetwork_vs_final",
     "Figure 4: in-network early votes vs final popularity",
     figures::fig4_innetwork_vs_final, nullptr},
    {"fig5_decision_tree", "Figure 5 / Section 5.2: predicting interestingness",
     figures::fig5_decision_tree, nullptr},
    {"fig5_roc", "Section 5.2 extension: ROC sweep and precision-gap CI",
     figures::fig5_roc, nullptr},
    {"fig6_friends_fans",
     "Final figure: friends+1 vs fans+1, all users vs top users",
     figures::fig6_friends_fans, nullptr},
    {"text_activity_skew",
     "Section 3: activity skew and the promotion boundary",
     figures::text_activity_skew, nullptr},
    {"fig7_model_prediction", "Prediction comparison: online Bayes fit vs C4.5",
     nullptr, figures::fig7_model_prediction},
    {"ablation_attention",
     "Ablation: shared attention vs per-story independence", nullptr,
     figures::ablation_attention},
    {"ablation_epidemic", "Ablation: SIS epidemic threshold, scale-free vs ER",
     nullptr, figures::ablation_epidemic},
    {"ablation_mechanisms", "Ablation: the two spreading mechanisms", nullptr,
     figures::ablation_mechanisms},
    {"ablation_modularity", "Ablation: cascades on modular networks", nullptr,
     figures::ablation_modularity},
};

}  // namespace

int main(int argc, char** argv) {
  std::string selected;
  const bench::CliOptions opts = bench::parse_cli(argc, argv, &selected);
  const Figure* only = nullptr;
  for (const Figure& f : kFigures)
    if (selected == f.name) only = &f;
  if (!selected.empty() && only == nullptr) {
    std::fprintf(stderr, "%s: unknown figure '%s'; figures:", argv[0],
                 selected.c_str());
    for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  bench::arm_report(opts, only != nullptr ? only->title : "All figures");

  std::optional<bench::Context> ctx;  // generated by the first corpus figure
  int status = 0;
  for (const Figure& f : kFigures) {
    if (only != nullptr && only != &f) continue;
    std::printf("== %s ==\n", f.title);
    try {
      if (f.standalone != nullptr) {
        f.standalone(opts);
      } else {
        if (!ctx) ctx.emplace(bench::generate_context(opts));
        bench::print_corpus_line(*ctx);
        f.from_corpus(*ctx);
      }
    } catch (const std::exception& err) {
      std::fflush(stdout);
      std::fprintf(stderr, "error: %s: %s\n", f.name, err.what());
      status = 1;
    }
  }
  return status;
}

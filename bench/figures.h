#pragma once
// One function per figure of the `figures` driver (bench/figures.cpp): each
// prints its figure's body after the driver's title line, and refuses bad
// input by throwing, never by exiting.

#include "bench/common.h"

namespace digg::figures {

// From the scenario's one corpus (bench/corpus_figures.cpp). A figure that
// draws randomness copies ctx.rng first, so it sees the stream it would see
// alone, whatever ran before it.
void fig1_vote_timeseries(const bench::Context& ctx);
void fig1_novelty_fit(const bench::Context& ctx);
void fig2a_vote_histogram(const bench::Context& ctx);
void fig2b_user_activity(const bench::Context& ctx);
void fig3a_influence(const bench::Context& ctx);
void fig3b_cascades(const bench::Context& ctx);
void fig4_innetwork_vs_final(const bench::Context& ctx);
void fig5_decision_tree(const bench::Context& ctx);
void fig5_roc(const bench::Context& ctx);
void fig6_friends_fans(const bench::Context& ctx);
void text_activity_skew(const bench::Context& ctx);

// Build their own corpora or graphs from the options' seed
// (bench/fig7_model_prediction.cpp, bench/ablations.cpp).
void fig7_model_prediction(const bench::CliOptions& opts);
void ablation_attention(const bench::CliOptions& opts);
void ablation_epidemic(const bench::CliOptions& opts);
void ablation_mechanisms(const bench::CliOptions& opts);
void ablation_modularity(const bench::CliOptions& opts);

}  // namespace digg::figures

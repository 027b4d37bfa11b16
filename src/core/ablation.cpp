#include "src/core/ablation.h"

#include <algorithm>

#include "src/core/features.h"
#include "src/stats/summary.h"

namespace digg::core {

namespace {

AblationVariant summarize_variant(std::string name,
                                  const data::Corpus& corpus) {
  AblationVariant v;
  v.name = std::move(name);
  v.front_page = corpus.front_page.size();
  v.upcoming = corpus.upcoming.size();
  if (corpus.front_page.empty()) return v;

  const std::vector<StoryFeatures> features =
      extract_features(corpus.front_page, corpus.network);
  std::vector<double> finals;
  std::vector<double> v10s;
  std::size_t interesting = 0;
  double v10_sum = 0.0;
  for (const StoryFeatures& f : features) {
    finals.push_back(static_cast<double>(f.final_votes));
    v10s.push_back(static_cast<double>(f.v10));
    v10_sum += static_cast<double>(f.v10);
    if (f.interesting) ++interesting;
  }
  v.median_final_votes = stats::summarize(finals).median;
  v.interesting_fraction =
      static_cast<double>(interesting) / static_cast<double>(features.size());
  v.mean_v10 = v10_sum / static_cast<double>(features.size());
  if (features.size() >= 3) {
    try {
      v.spearman_v10_final = stats::spearman(v10s, finals);
    } catch (const std::invalid_argument&) {
      v.spearman_v10_final = 0.0;  // zero variance in one of the series
    }
  }
  return v;
}

}  // namespace

MechanismAblationResult mechanism_ablation(const data::SyntheticParams& params,
                                           std::uint64_t seed) {
  MechanismAblationResult result;
  {
    stats::Rng rng(seed);
    result.full =
        summarize_variant("full model", data::generate_corpus(params, rng).corpus);
  }
  using Channels = dynamics::VoteModelParams::Channels;
  {
    data::SyntheticParams no_fan = params;
    no_fan.vote_model.channels = Channels::kNoFanChannel;
    stats::Rng rng(seed);
    result.no_fan_channel = summarize_variant(
        "no fan channel", data::generate_corpus(no_fan, rng).corpus);
  }
  {
    data::SyntheticParams no_discovery = params;
    no_discovery.vote_model.channels = Channels::kNoDiscovery;
    stats::Rng rng(seed);
    result.no_discovery = summarize_variant(
        "no discovery", data::generate_corpus(no_discovery, rng).corpus);
  }
  return result;
}

}  // namespace digg::core

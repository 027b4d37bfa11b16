#pragma once
// Calibrated synthetic Digg corpus (the dataset substitution, see DESIGN.md).
//
// The generator reproduces the paper's measured marginals:
//   - fan network: preferential attachment -> power-law fan counts; early
//     (low-id) nodes are "top users" with the most fans, and user activity
//     is aligned with arrival order (§3.2);
//   - story appeal: a bimodal mixture of general appeal, calibrated so that
//     among *promoted* stories ~20% end below ~500 votes and ~20% above
//     ~1500 (Fig. 2a);
//   - community appeal: correlated with general appeal plus a boost for
//     top-user submissions — their fan base diggs their stories regardless
//     of general interest (§5.1);
//   - vote records: generated by the two-mechanism vote model running on
//     the platform simulator with the June-2006 promotion rule (43 votes).

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "src/data/corpus.h"
#include "src/data/snapshot.h"
#include "src/digg/user.h"
#include "src/dynamics/model.h"
#include "src/dynamics/stochastic_model.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
#include "src/stats/rng.h"

namespace digg::data {

/// Which promotion algorithm corpus generation runs with — a scenario knob
/// (§6 asks how the algorithm shapes what gets promoted). kCountAndRate is
/// the calibrated June-2006 reconstruction; kDiversity down-weights fan
/// votes (the post-controversy direction Digg announced).
enum class PromotionRule { kCountAndRate, kDiversity };

/// General-appeal bands of the story mixture (its fractions, like the rest
/// of the calibration, are constants in synthetic.cpp); a story's appeal is
/// uniform within the band the mixture picks.
struct AppealBand {
  double lo, hi;
};
inline constexpr AppealBand kDullAppeal{0.02, 0.13};
inline constexpr AppealBand kMidAppeal{0.20, 0.38};
inline constexpr AppealBand kHotAppeal{0.40, 0.90};

struct SyntheticParams {
  std::size_t user_count = 120000;
  std::size_t story_count = 1100;
  /// A share of submissions comes from the best-connected users (ids below
  /// top_submitter_pool), Zipf-distributed within the pool. The paper's
  /// front page is dominated by top users.
  std::size_t top_submitter_pool = 100;

  /// Corpus generation promotes with the vote-count AND vote-rate rule
  /// (§3: the algorithm considers "the number of votes ... and the rate at
  /// which it receives them"). 43 votes is necessary, not sufficient: a
  /// story must also gather its last `promotion_rate_votes` votes within
  /// four hours. This is what strands most dull top-user submissions in
  /// the queue with 10-40 slow fan votes — the population the §5.2 test set
  /// is scraped from. kDiversity makes the threshold a weighted vote mass.
  std::size_t promotion_threshold = 43;
  std::size_t promotion_rate_votes = 10;
  PromotionRule promotion_rule = PromotionRule::kCountAndRate;

  graph::PreferentialAttachmentParams network;
  /// Population activity profile; `user_count` above always overrides the
  /// nested count (same staleness rule as network.node_count).
  platform::PopulationParams population;

  /// Which of the two models drives the votes (dynamics::kModelIds); each
  /// id runs with its nested params below.
  std::string model_id = dynamics::kLegacyModelId;
  dynamics::VoteModelParams vote_model;          // id "two-mechanism"
  dynamics::StochasticModelParams stochastic;    // id "stochastic"

  /// The simulator generation will run on `site`, owning `rng`. Throws
  /// std::invalid_argument naming an unknown model_id and listing the
  /// known ones.
  [[nodiscard]] std::unique_ptr<dynamics::Simulator> make_simulator(
      const platform::Site& site, stats::Rng rng) const;

  SyntheticParams() {
    network.node_count = user_count;
    network.mean_out_degree = 4.0;
    network.smoothing = 2.5;
  }
};

struct SyntheticCorpus {
  Corpus corpus;
  /// The latent traits per story id (story ids are dense across front_page
  /// and upcoming), exposed for calibration tests only — analysis code must
  /// not look at them.
  std::vector<dynamics::StoryTraits> traits;
  std::uint64_t seed = 0;
};

/// Generates the corpus. Deterministic given the seed embedded in `rng`.
[[nodiscard]] SyntheticCorpus generate_corpus(const SyntheticParams& params,
                                              stats::Rng& rng);

/// Summary of a streamed generation run (the corpus itself lives on disk).
struct StreamedCorpusInfo {
  std::uint64_t seed = 0;
  std::size_t story_count = 0;
  std::size_t front_page_count = 0;
  std::size_t upcoming_count = 0;  // never promoted (expired included)
  std::uint64_t total_votes = 0;
};

/// Generates the corpus generate_corpus would produce (identical RNG
/// consumption — same stories, votes, phases, and top-user ranking for the
/// same params and rng state) but streams it story-by-story into a
/// snapshot at `path` instead of materialising it in memory: each story's
/// vote columns are handed to the snapshot writer and released from the
/// platform as soon as its run finishes, so peak RSS is O(users + stories)
/// and does not scale with the total vote count. This is the million-user
/// path; load the result with load_snapshot_mmap. Sets the
/// `data.generation_peak_rss` gauge (bytes, VmHWM) on Linux.
[[nodiscard]] StreamedCorpusInfo generate_corpus_to_snapshot(
    const SyntheticParams& params, stats::Rng& rng,
    const std::filesystem::path& path,
    std::size_t chunk_target_bytes = kDefaultVoteChunkBytes);

}  // namespace digg::data

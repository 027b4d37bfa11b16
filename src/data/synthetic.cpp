#include "src/data/synthetic.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "src/digg/platform.h"
#include "src/digg/promotion.h"
#include "src/digg/user.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace digg::data {

namespace {

/// Fraction of submissions made by the top_submitter_pool; within the pool
/// submitters are Zipf-distributed (the busiest top users — who are also
/// the best connected — submit disproportionately, §3's "top 3% made 35%
/// of submissions").
constexpr double kTopSubmitterFraction = 0.30;
constexpr double kTopSubmitterZipf = 0.9;

/// Window of the vote-rate rule: a story's last promotion_rate_votes votes
/// must arrive within it.
constexpr platform::Minutes kPromotionRateWindow = 4.0 * 60.0;
/// Weight of an in-network (fan) vote under PromotionRule::kDiversity (the
/// post-controversy direction Digg announced); out-of-network votes count
/// 1.0.
constexpr double kDiversityFanVoteWeight = 0.4;

/// General-appeal mixture: the dull and hot fractions (the rest is
/// middling).
constexpr double kDullFraction = 0.22;
constexpr double kHotFraction = 0.24;
/// Top users submit far more, and their marginal story is duller — the §5
/// observation ("many of the front-page stories submitted by best connected
/// users were deemed to be uninteresting") and the root of the
/// September-2006 top-user controversy. Their submissions use this mixture
/// instead.
constexpr double kTopDullFraction = 0.55;
constexpr double kTopHotFraction = 0.05;

/// Community appeal: base + slope * general + top-user boost + noise.
constexpr double kCommunityBase = 0.15;
constexpr double kCommunityGeneralSlope = 0.5;
constexpr double kCommunityTopBoost = 0.40;
constexpr double kCommunityNoise = 0.12;

/// Minutes between consecutive submissions (1-2/minute on real Digg; we
/// space them out since we only simulate the studied sample).
constexpr platform::Minutes kSubmissionSpacing = 2.0;

double sample_general_appeal(bool top_submitter, stats::Rng& rng) {
  const double dull = top_submitter ? kTopDullFraction : kDullFraction;
  const double hot = top_submitter ? kTopHotFraction : kHotFraction;
  const double u = rng.uniform();
  if (u < dull) return rng.uniform(kDullAppeal.lo, kDullAppeal.hi);
  if (u < dull + hot) return rng.uniform(kHotAppeal.lo, kHotAppeal.hi);
  return rng.uniform(kMidAppeal.lo, kMidAppeal.hi);
}

double sample_community_appeal(double general, double submitter_fan_pull,
                               stats::Rng& rng) {
  double c = kCommunityBase + kCommunityGeneralSlope * general +
             kCommunityTopBoost * submitter_fan_pull +
             rng.normal(0.0, kCommunityNoise);
  return std::clamp(c, 0.0, 1.0);
}

std::unique_ptr<platform::PromotionPolicy> make_policy(
    const SyntheticParams& p) {
  switch (p.promotion_rule) {
    case PromotionRule::kCountAndRate:
      return std::make_unique<platform::VoteRatePolicy>(
          p.promotion_threshold, p.promotion_rate_votes,
          kPromotionRateWindow);
    case PromotionRule::kDiversity:
      return std::make_unique<platform::DiversityPolicy>(
          static_cast<double>(p.promotion_threshold),
          kDiversityFanVoteWeight);
  }
  throw std::invalid_argument("generate_corpus: bad promotion_rule");
}

/// Peak resident set of this process in bytes (VmHWM), or 0 where
/// /proc/self/status is unavailable.
std::size_t peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
#endif
  return 0;
}

struct GenerationCore {
  std::unique_ptr<platform::Site> site;
  std::vector<platform::Story> stories;  // by id
  std::vector<dynamics::StoryTraits> traits;
};

/// The generation pipeline shared by the in-memory and streamed drivers.
/// Both consume the rng identically (the hooks never draw), so they produce
/// bit-identical corpora. `on_network` fires once, before the stories run;
/// `on_story` fires for each finished story in id order, before the story
/// is stored — the streamed path persists and drops its vote columns
/// there. Stories simulate in parallel, so `on_story` may run on a pool
/// thread (never two calls at once).
GenerationCore run_generation(
    const SyntheticParams& params, stats::Rng& rng,
    const std::function<void(const graph::Digraph&)>& on_network,
    const std::function<void(platform::Story&)>& on_story) {
  if (params.story_count == 0)
    throw std::invalid_argument("generate_corpus: story_count == 0");
  if (params.top_submitter_pool == 0 ||
      params.top_submitter_pool > params.user_count)
    throw std::invalid_argument("generate_corpus: bad top_submitter_pool");

  obs::Span span("data.generate_corpus");
  static obs::Counter& users_generated =
      obs::Registry::global().counter("data.users_generated");
  static obs::Counter& stories_generated =
      obs::Registry::global().counter("data.stories_generated");
  users_generated.inc(params.user_count);
  stories_generated.inc(params.story_count);

  // 1. Fan network; node_count follows user_count regardless of what the
  // nested params carry (they may be stale after field-by-field edits).
  graph::PreferentialAttachmentParams net_params = params.network;
  net_params.node_count = params.user_count;
  graph::Digraph network = preferential_attachment(net_params, rng);

  // 2. Population (activity aligned with arrival order: user 0 heaviest).
  platform::PopulationParams pop = params.population;
  pop.user_count = params.user_count;
  std::vector<platform::UserProfile> users =
      platform::generate_population(pop, rng);

  if (on_network) on_network(network);

  // 3. The immutable site with the scenario's promotion rule.
  GenerationCore core;
  core.site = std::make_unique<platform::Site>(
      std::move(network), std::move(users), make_policy(params));
  const platform::Site& site = *core.site;
  // The model draws from per-story rng.split(story_id) substreams, but the
  // fork here still consumes one parent draw — keeping the trait-sampling
  // stream below identical to the golden corpora.
  const std::unique_ptr<dynamics::Simulator> sim =
      params.make_simulator(site, rng.fork());

  // 4. Submissions, sampled serially: traits drawn per story; community
  // appeal pulled up by the submitter's fan count (their personal audience).
  std::vector<dynamics::Submission> submissions;
  submissions.reserve(params.story_count);
  core.traits.reserve(params.story_count);
  const stats::ZipfSampler top_picker(params.top_submitter_pool,
                                      kTopSubmitterZipf);
  for (std::size_t k = 0; k < params.story_count; ++k) {
    platform::UserId submitter;
    const bool top_submitter = rng.bernoulli(kTopSubmitterFraction);
    if (top_submitter) {
      submitter = static_cast<platform::UserId>(top_picker.sample(rng) - 1);
    } else {
      submitter = static_cast<platform::UserId>(rng.uniform_int(
          0, static_cast<std::int64_t>(params.user_count) - 1));
    }
    dynamics::StoryTraits traits;
    traits.general = sample_general_appeal(top_submitter, rng);
    const double fan_pull = std::min(
        1.0, static_cast<double>(site.network().fan_count(submitter)) / 100.0);
    traits.community =
        sample_community_appeal(traits.general, fan_pull, rng);
    submissions.emplace_back(submitter, traits);
    core.traits.push_back(traits);
  }

  // 5. Every story, in parallel; each finished story's phase is final.
  core.stories.reserve(params.story_count);
  dynamics::simulate_each(site, *sim, submissions, kSubmissionSpacing,
                          [&](dynamics::SimulatedStory&& done) {
                            if (on_story) on_story(done.story);
                            core.stories.push_back(std::move(done.story));
                          });
  return core;
}

}  // namespace

std::unique_ptr<dynamics::Simulator> SyntheticParams::make_simulator(
    const platform::Site& site, stats::Rng rng) const {
  if (model_id == dynamics::kLegacyModelId)
    return std::make_unique<dynamics::VoteSimulator>(site, vote_model,
                                                     std::move(rng));
  if (model_id == dynamics::kStochasticModelId)
    return std::make_unique<dynamics::StochasticSimulator>(site, stochastic,
                                                           std::move(rng));
  std::string known;
  for (const std::string_view id : dynamics::kModelIds)
    known += (known.empty() ? "" : ", ") + std::string(id);
  throw std::invalid_argument("unknown generative model id '" + model_id +
                              "' (known: " + known + ")");
}

SyntheticCorpus generate_corpus(const SyntheticParams& params,
                                stats::Rng& rng) {
  SyntheticCorpus out;
  out.seed = rng.seed();
  GenerationCore core = run_generation(params, rng, nullptr, nullptr);
  out.traits = std::move(core.traits);

  // 6. Partition into front-page vs upcoming and rank users.
  Corpus& corpus = out.corpus;
  corpus.model_id = params.model_id;
  corpus.network = core.site->network();
  for (const platform::Story& s : core.stories) {
    corpus.add_story(s, s.promoted() ? Corpus::Section::kFrontPage
                                     : Corpus::Section::kUpcoming);
  }
  const std::vector<std::uint32_t> reputation =
      platform::promoted_submission_counts(core.stories, params.user_count);
  corpus.top_users =
      platform::top_user_ranking(reputation, corpus.network.in_degrees());
  obs::log_debug("data", "generated corpus",
                 {{"seed", out.seed},
                  {"users", params.user_count},
                  {"stories", params.story_count},
                  {"front_page", corpus.front_page.size()},
                  {"upcoming", corpus.upcoming.size()}});
  return out;
}

StreamedCorpusInfo generate_corpus_to_snapshot(
    const SyntheticParams& params, stats::Rng& rng,
    const std::filesystem::path& path, std::size_t chunk_target_bytes) {
  SnapshotWriter writer(path, chunk_target_bytes);
  writer.write_model_id(params.model_id);
  StreamedCorpusInfo info;
  info.seed = rng.seed();

  GenerationCore core = run_generation(
      params, rng,
      [&writer](const graph::Digraph& network) {
        writer.write_network(network);
      },
      [&writer](platform::Story& s) {
        // The run is over, so the vote columns are final: persist them and
        // drop them to keep the working set bounded.
        writer.add_votes(s.voters, s.times);
        s.voters = {};
        s.times = {};
      });

  // One O(stories) metadata pass; the vote columns are already on disk.
  for (const platform::Story& s : core.stories) {
    writer.add_story(s);
    if (s.promoted())
      ++info.front_page_count;
    else
      ++info.upcoming_count;
  }
  const std::vector<std::uint32_t> reputation =
      platform::promoted_submission_counts(core.stories, params.user_count);
  const std::vector<platform::UserId> top_users =
      platform::top_user_ranking(reputation,
                                 core.site->network().in_degrees());
  writer.write_top_users(top_users);
  info.story_count = writer.story_count();
  info.total_votes = writer.total_votes();
  writer.finish();

  static obs::Gauge& peak_rss =
      obs::Registry::global().gauge("data.generation_peak_rss");
  if (const std::size_t rss = peak_rss_bytes(); rss > 0)
    peak_rss.set(static_cast<double>(rss));
  obs::log_debug("data", "streamed corpus to snapshot",
                 {{"seed", info.seed},
                  {"users", params.user_count},
                  {"stories", info.story_count},
                  {"front_page", info.front_page_count},
                  {"upcoming", info.upcoming_count},
                  {"total_votes", info.total_votes}});
  return info;
}

}  // namespace digg::data

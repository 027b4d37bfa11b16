#pragma once
// Online Bayesian model fitting, after Hogg & Lerman, "Stochastic Models of
// User-Contributory Web Sites" (arXiv:1004.5354): estimate a story's
// per-channel vote rates from its first k vote *timings*, then integrate
// the fitted rate model forward to predict the final vote count — a
// second, model-based early predictor racing the paper's §5.2 (v10, fans1)
// C4.5 tree inside the stream engine.
//
// The fit is conjugate (Gamma-Poisson) per channel, so it is exact and
// O(1) given two sufficient statistics the engine accumulates per vote:
//
//   fan channel      votes arrive at rate  r_fan · audience(t), where
//                    audience(t) is the fan-union influence the engine
//                    already maintains. Sufficient statistic: watcher
//                    exposure  Σ influence(t_{k-1}) · (t_k − t_{k-1})
//                    (watcher-minutes), accumulated vote by vote BEFORE
//                    each voter joins the union.
//   discovery        votes arrive at rate  r_disc (per minute) while the
//                    story is in the upcoming queue. Sufficient statistic:
//                    elapsed time.
//
// With Gamma(α, β) priors the posterior means are
//   r_fan  = (α_fan  + in-network votes) / (β_fan  + exposure)
//   r_disc = (α_disc + out-of-network votes) / (β_disc + elapsed)
// and the forward prediction is a mean-field integration of
//   dN = r_fan · A dt + r_disc · decay(t) dt,     A ← A + g · dN
// where g (audience recruited per vote) is estimated from the story's own
// A/N at fit time, discovery visibility decays with queue age, and
// crossing kPromotionVotes switches discovery to the front-page channel (a
// traffic multiplier with novelty half-life decay).
//
// Everything here is pure arithmetic on plain structs — the engine owns
// the accumulation discipline (see engine.h) and this header owns the
// model, so the fit is unit-testable without a stream.

#include <cstdint>

namespace digg::stream {

/// The June-2006 promotion rule (§3): a story is promoted by its 43rd vote,
/// counting the submitter's digg. The stream engine records that vote's
/// arrival time as the promotion time; the forward model switches to the
/// front-page channel when its expected count crosses it.
inline constexpr std::uint32_t kPromotionVotes = 43;

/// The fit reads the timings of the first kFitVotes votes after the
/// submitter's digg: the §5.2 decision point, at which the engine also
/// scores the C4.5 tree, so the race between the two is apples-to-apples.
inline constexpr std::uint32_t kFitVotes = 10;

/// Gamma prior on the fan-channel rate (votes per watcher-minute): shape
/// kFanPriorVotes, rate kFanPriorExposure. The prior mean ~5e-4 votes per
/// watcher-minute regularises stories whose first votes arrive before any
/// fan exposure accumulates.
inline constexpr double kFanPriorVotes = 1.0;
inline constexpr double kFanPriorExposure = 2000.0;
/// Gamma prior on the discovery rate (votes per minute). Prior mean ~1 vote
/// per 400 minutes — a dull story's background trickle.
inline constexpr double kDiscPriorVotes = 1.0;
inline constexpr double kDiscPriorMinutes = 400.0;

/// Upcoming-queue visibility decay for the forward integration (same
/// mechanism as the generative models: newer submissions push the story off
/// the browsed pages).
inline constexpr double kUpcomingDecayMinutes = 240.0;
/// Fan-channel attention decay: fans act on a friend's digg within a
/// recency window (both generative models implement this), so the fan rate
/// fades with story age instead of compounding forever.
inline constexpr double kFanDecayMinutes = 2880.0;
/// Discovery-rate multiplier on promotion (front-page traffic dwarfs the
/// queue's) and the Wu–Huberman novelty half-life it decays with.
inline constexpr double kFrontPageGain = 12.0;
inline constexpr double kNoveltyHalfLife = 1440.0;
/// Mean-field integration step and horizon (minutes).
inline constexpr double kStepMinutes = 30.0;
inline constexpr double kHorizonMinutes = 4.0 * 24.0 * 60.0;
/// Cap on the audience recruited per vote (fans of a mega-hub's voters
/// overlap heavily; unbounded g makes the integration supercritical).
inline constexpr double kMaxAudiencePerVote = 60.0;

struct BayesFitParams {
  /// Master switch; disabled engines carry zero per-vote overhead.
  bool enabled = false;
};

/// The sufficient statistics at the fit point, as the engine hands them
/// over: everything is O(1) state the engine already tracks.
struct BayesEvidence {
  std::uint32_t in_network_votes = 0;   // of the first kFitVotes votes
  std::uint32_t out_network_votes = 0;  // kFitVotes - in_network_votes
  double exposure_watcher_minutes = 0;  // Σ influence · dt over the prefix
  double elapsed_minutes = 0;     // time of vote kFitVotes since submission
  double audience = 0;            // fan-union influence after vote kFitVotes
  std::uint32_t votes = 0;        // total votes so far (kFitVotes + 1)
  /// Platform user count: the forward integration's saturation bound (a
  /// story cannot collect more votes than there are users, and the fan
  /// cascade slows as the susceptible pool drains). 0 = unbounded.
  double population = 0;
};

/// Posterior rates + the audience-recruitment estimate.
struct BayesFit {
  double r_fan = 0;   // votes per watcher-minute (posterior mean)
  double r_disc = 0;  // votes per minute (posterior mean)
  double audience_per_vote = 0;  // g: audience recruited per vote
};

/// The conjugate posterior-mean fit. Pure; never throws.
[[nodiscard]] BayesFit fit_rates(const BayesEvidence& evidence);

/// Mean-field forward integration of the fitted rates from the fit point
/// to the horizon; returns the expected final vote count (>= evidence
/// votes). Pure; never throws.
[[nodiscard]] double expected_final_votes(const BayesEvidence& evidence,
                                          const BayesFit& fit);

}  // namespace digg::stream

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

struct BayesFitParams {
  /// Master switch; disabled engines carry zero per-vote overhead.
  bool enabled = false;
  /// Fit from the timings of the first `fit_at` votes after the
  /// submitter's digg — 10 matches the §5.2 decision point, so the race
  /// against the C4.5 tree is apples-to-apples. Must be covered by the
  /// engine's cascade window (fit_at <= last cascade checkpoint).
  std::uint32_t fit_at = 10;

  /// Gamma prior on the fan-channel rate (votes per watcher-minute):
  /// shape `fan_prior_votes`, rate `fan_prior_exposure`. The prior mean
  /// ~5e-4 votes/watcher-minute regularises stories whose first votes
  /// arrive before any fan exposure accumulates.
  double fan_prior_votes = 1.0;
  double fan_prior_exposure = 2000.0;
  /// Gamma prior on the discovery rate (votes per minute). Prior mean
  /// ~1 vote / 400 minutes — a dull story's background trickle.
  double disc_prior_votes = 1.0;
  double disc_prior_minutes = 400.0;

  /// Upcoming-queue visibility decay for the forward integration (same
  /// mechanism as the generative models: newer submissions push the story
  /// off the browsed pages).
  double upcoming_decay_minutes = 240.0;
  /// Fan-channel attention decay: fans act on a friend's digg within a
  /// recency window (both generative models implement this), so the fan
  /// rate fades with story age instead of compounding forever.
  double fan_decay_minutes = 2880.0;
  /// Discovery-rate multiplier on promotion (front-page traffic dwarfs the
  /// queue's) and the Wu–Huberman novelty half-life it decays with.
  double front_page_gain = 12.0;
  double novelty_half_life = 1440.0;
  /// Mean-field integration step and horizon (minutes).
  double step_minutes = 30.0;
  double horizon_minutes = 4.0 * 24.0 * 60.0;
  /// Cap on the audience recruited per vote (fans of a mega-hub's voters
  /// overlap heavily; unbounded g makes the integration supercritical).
  double max_audience_per_vote = 60.0;
};

/// The sufficient statistics at the fit point, as the engine hands them
/// over: everything is O(1) state the engine already tracks.
struct BayesEvidence {
  std::uint32_t in_network_votes = 0;   // of the first fit_at votes
  std::uint32_t out_network_votes = 0;  // fit_at - in_network_votes
  double exposure_watcher_minutes = 0;  // Σ influence · dt over the prefix
  double elapsed_minutes = 0;           // time of vote fit_at since submission
  double audience = 0;                  // fan-union influence after vote fit_at
  std::uint32_t votes = 0;              // total votes so far (fit_at + 1)
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
[[nodiscard]] BayesFit fit_rates(const BayesFitParams& params,
                                 const BayesEvidence& evidence);

/// Mean-field forward integration of the fitted rates from the fit point
/// to the horizon; returns the expected final vote count (>= evidence
/// votes). Pure; never throws.
[[nodiscard]] double expected_final_votes(const BayesFitParams& params,
                                          const BayesEvidence& evidence,
                                          const BayesFit& fit);

}  // namespace digg::stream

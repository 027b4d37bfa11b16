#include "src/stream/bayes.h"

#include <algorithm>
#include <cmath>

namespace digg::stream {

BayesFit fit_rates(const BayesFitParams& params,
                   const BayesEvidence& evidence) {
  BayesFit fit;
  fit.r_fan = (params.fan_prior_votes + evidence.in_network_votes) /
              (params.fan_prior_exposure + evidence.exposure_watcher_minutes);
  fit.r_disc = (params.disc_prior_votes + evidence.out_network_votes) /
               (params.disc_prior_minutes + evidence.elapsed_minutes);
  // The story's own audience-per-vote ratio is the cleanest local estimate
  // of how much fresh audience each additional voter recruits — it already
  // reflects the realised fan overlap of this cascade.
  fit.audience_per_vote =
      evidence.votes > 0
          ? std::min(params.max_audience_per_vote,
                     evidence.audience / static_cast<double>(evidence.votes))
          : 0.0;
  return fit;
}

double expected_final_votes(const BayesFitParams& params,
                            const BayesEvidence& evidence,
                            const BayesFit& fit) {
  double n = evidence.votes;
  double audience = evidence.audience;
  const double h = std::max(1.0, params.step_minutes);
  const double t0 = evidence.elapsed_minutes;
  bool promoted = n >= static_cast<double>(kPromotionVotes);
  // Every visibility term decays geometrically in the step count, so each
  // is its value at t0 times a constant per-step factor: the loop
  // multiplies instead of calling exp/pow. The front-page term restarts at
  // the promotion step (novelty counts from the promotion time).
  const bool fan_decays = params.fan_decay_minutes > 0;
  const double fan_step =
      fan_decays ? std::exp(-h / params.fan_decay_minutes) : 1.0;
  const double upcoming_step = std::exp(-h / params.upcoming_decay_minutes);
  const double front_page_step = std::pow(0.5, h / params.novelty_half_life);
  double fan_visibility =
      fan_decays ? std::exp(-t0 / params.fan_decay_minutes) : 1.0;
  double disc_visibility =
      promoted ? params.front_page_gain
               : std::exp(-t0 / params.upcoming_decay_minutes);
  for (double t = t0; t < params.horizon_minutes; t += h) {
    double dn = fit.r_fan * fan_visibility * audience * h +
                fit.r_disc * disc_visibility * h;
    // Finite-population (logistic) damping: the susceptible pool drains as
    // the story saturates, so supercritical fits level off at the user
    // count instead of integrating to astronomically many votes.
    if (evidence.population > 0) {
      dn *= std::max(0.0, 1.0 - n / evidence.population);
      if (n + dn > evidence.population) dn = evidence.population - n;
    }
    n += dn;
    audience += fit.audience_per_vote * dn;
    fan_visibility *= fan_step;
    if (!promoted && n >= static_cast<double>(kPromotionVotes)) {
      promoted = true;
      disc_visibility = params.front_page_gain * front_page_step;
    } else {
      disc_visibility *= promoted ? front_page_step : upcoming_step;
    }
  }
  return n;
}

}  // namespace digg::stream

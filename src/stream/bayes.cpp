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
  bool promoted = n >= static_cast<double>(kPromotionVotes);
  double promoted_at = promoted ? evidence.elapsed_minutes : 0.0;
  for (double t = evidence.elapsed_minutes; t < params.horizon_minutes;
       t += h) {
    double disc_visibility;
    if (promoted) {
      disc_visibility = params.front_page_gain *
                        std::pow(0.5, (t - promoted_at) /
                                          params.novelty_half_life);
    } else {
      disc_visibility = std::exp(-t / params.upcoming_decay_minutes);
    }
    const double fan_visibility =
        params.fan_decay_minutes > 0
            ? std::exp(-t / params.fan_decay_minutes)
            : 1.0;
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
    if (!promoted && n >= static_cast<double>(kPromotionVotes)) {
      promoted = true;
      promoted_at = t;
    }
  }
  return n;
}

}  // namespace digg::stream

#include "src/stream/bayes.h"

#include <algorithm>
#include <cmath>

namespace digg::stream {

BayesFit fit_rates(const BayesEvidence& evidence) {
  BayesFit fit;
  fit.r_fan = (kFanPriorVotes + evidence.in_network_votes) /
              (kFanPriorExposure + evidence.exposure_watcher_minutes);
  fit.r_disc = (kDiscPriorVotes + evidence.out_network_votes) /
               (kDiscPriorMinutes + evidence.elapsed_minutes);
  // The story's own audience-per-vote ratio is the cleanest local estimate
  // of how much fresh audience each additional voter recruits — it already
  // reflects the realised fan overlap of this cascade.
  fit.audience_per_vote =
      evidence.votes > 0
          ? std::min(kMaxAudiencePerVote,
                     evidence.audience / static_cast<double>(evidence.votes))
          : 0.0;
  return fit;
}

double expected_final_votes(const BayesEvidence& evidence,
                            const BayesFit& fit) {
  double n = evidence.votes;
  double audience = evidence.audience;
  constexpr double h = kStepMinutes;
  const double t0 = evidence.elapsed_minutes;
  bool promoted = n >= static_cast<double>(kPromotionVotes);
  // Every visibility term decays geometrically in the step count, so each
  // is its value at t0 times a constant per-step factor: the loop
  // multiplies instead of calling exp/pow. The front-page term restarts at
  // the promotion step (novelty counts from the promotion time).
  const double fan_step = std::exp(-h / kFanDecayMinutes);
  const double upcoming_step = std::exp(-h / kUpcomingDecayMinutes);
  const double front_page_step = std::pow(0.5, h / kNoveltyHalfLife);
  double fan_visibility = std::exp(-t0 / kFanDecayMinutes);
  double disc_visibility =
      promoted ? kFrontPageGain : std::exp(-t0 / kUpcomingDecayMinutes);
  for (double t = t0; t < kHorizonMinutes; t += h) {
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
      disc_visibility = kFrontPageGain * front_page_step;
    } else {
      disc_visibility *= promoted ? front_page_step : upcoming_step;
    }
  }
  return n;
}

}  // namespace digg::stream

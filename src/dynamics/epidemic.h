#pragma once
// SIS epidemic model on networks, for the §6 future-work experiment:
// Pastor-Satorras & Vespignani showed that scale-free degree distributions
// drive the SIS epidemic threshold to zero (λ_c = <k>/<k²> under the
// degree-based mean-field), unlike Erdős–Rényi graphs whose threshold stays
// finite. We verify this contrast on our generated networks.

#include <cstddef>
#include <vector>

#include "src/graph/digraph.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

struct EpidemicParams {
  double infection_rate = 0.1;  // per-contact per-step infection probability
  double recovery_rate = 0.2;   // per-step recovery probability
  std::size_t max_steps = 500;
  std::size_t initial_infected = 5;
};

struct EpidemicResult {
  /// Infected count per step (step 0 = initial seeding).
  std::vector<std::size_t> infected_over_time;
  /// Average infected fraction over the last quarter of the run (endemic
  /// prevalence).
  double final_metric = 0.0;
};

/// Discrete-time SIS along the undirected projection: infected nodes infect
/// each neighbor w.p. infection_rate per step and recover w.p. recovery_rate.
[[nodiscard]] EpidemicResult sis_epidemic(const graph::Digraph& g,
                                          const EpidemicParams& params,
                                          stats::Rng& rng);

/// Degree-based mean-field SIS threshold estimate: λ_c = <k> / <k²> over the
/// undirected projection. Effective spreading rate is infection/recovery.
[[nodiscard]] double sis_threshold_estimate(const graph::Digraph& g);

/// Sweep of endemic prevalence vs effective spreading rate λ =
/// infection/recovery, holding recovery fixed. Returns (λ, prevalence)
/// pairs averaged over `trials` runs each.
[[nodiscard]] std::vector<std::pair<double, double>> prevalence_sweep(
    const graph::Digraph& g, const std::vector<double>& lambdas,
    double recovery_rate, std::size_t trials, std::size_t max_steps,
    stats::Rng& rng);

}  // namespace digg::dynamics

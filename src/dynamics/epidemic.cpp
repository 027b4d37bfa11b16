#include "src/dynamics/epidemic.h"

#include <algorithm>
#include <stdexcept>

namespace digg::dynamics {

namespace {

enum class State : std::uint8_t { kSusceptible, kInfected };

std::vector<State> seed_infection(std::size_t n, std::size_t initial,
                                  stats::Rng& rng) {
  std::vector<State> state(n, State::kSusceptible);
  const std::size_t seeds = std::min(initial, n);
  std::size_t placed = 0;
  while (placed < seeds) {
    const auto u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (state[u] != State::kInfected) {
      state[u] = State::kInfected;
      ++placed;
    }
  }
  return state;
}

}  // namespace

EpidemicResult sis_epidemic(const graph::Digraph& g,
                            const EpidemicParams& params, stats::Rng& rng) {
  if (g.node_count() == 0)
    throw std::invalid_argument("epidemic: empty graph");
  if (params.infection_rate < 0.0 || params.infection_rate > 1.0 ||
      params.recovery_rate < 0.0 || params.recovery_rate > 1.0)
    throw std::invalid_argument("epidemic: bad rates");

  std::vector<State> state =
      seed_infection(g.node_count(), params.initial_infected, rng);
  EpidemicResult result;
  auto count_infected = [&] {
    return static_cast<std::size_t>(
        std::count(state.begin(), state.end(), State::kInfected));
  };
  result.infected_over_time.push_back(count_infected());

  std::vector<State> next = state;

  for (std::size_t step = 0; step < params.max_steps; ++step) {
    next = state;
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      if (state[u] != State::kInfected) continue;
      auto try_infect = [&](graph::NodeId v) {
        if (state[v] == State::kSusceptible &&
            next[v] == State::kSusceptible &&
            rng.bernoulli(params.infection_rate)) {
          next[v] = State::kInfected;
        }
      };
      for (graph::NodeId v : g.friends(u)) try_infect(v);
      for (graph::NodeId v : g.fans(u)) try_infect(v);
      if (rng.bernoulli(params.recovery_rate)) next[u] = State::kSusceptible;
    }
    state.swap(next);
    result.infected_over_time.push_back(count_infected());
    if (result.infected_over_time.back() == 0) break;
  }

  // Endemic prevalence: the mean infected fraction over the run's tail.
  const double n = static_cast<double>(g.node_count());
  const std::size_t steps = result.infected_over_time.size();
  const std::size_t tail_start = steps - std::max<std::size_t>(1, steps / 4);
  double acc = 0.0;
  for (std::size_t i = tail_start; i < steps; ++i)
    acc += static_cast<double>(result.infected_over_time[i]);
  result.final_metric = acc / static_cast<double>(steps - tail_start) / n;
  return result;
}

double sis_threshold_estimate(const graph::Digraph& g) {
  if (g.node_count() == 0)
    throw std::invalid_argument("sis_threshold_estimate: empty graph");
  double k_sum = 0.0;
  double k2_sum = 0.0;
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    const auto k =
        static_cast<double>(g.friend_count(u) + g.fan_count(u));
    k_sum += k;
    k2_sum += k * k;
  }
  if (k2_sum == 0.0) return 0.0;
  return k_sum / k2_sum;
}

std::vector<std::pair<double, double>> prevalence_sweep(
    const graph::Digraph& g, const std::vector<double>& lambdas,
    double recovery_rate, std::size_t trials, std::size_t max_steps,
    stats::Rng& rng) {
  if (trials == 0) throw std::invalid_argument("prevalence_sweep: 0 trials");
  std::vector<std::pair<double, double>> out;
  out.reserve(lambdas.size());
  for (double lambda : lambdas) {
    EpidemicParams params;
    params.recovery_rate = recovery_rate;
    params.infection_rate = std::min(1.0, lambda * recovery_rate);
    params.max_steps = max_steps;
    double acc = 0.0;
    for (std::size_t t = 0; t < trials; ++t)
      acc += sis_epidemic(g, params, rng).final_metric;
    out.emplace_back(lambda, acc / static_cast<double>(trials));
  }
  return out;
}

}  // namespace digg::dynamics

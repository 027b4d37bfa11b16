#pragma once
// Named generation scenarios: one spec bundles a generative model id
// (dynamics::kModelIds), the fully configured SyntheticParams, and a seed,
// so every bench, example, and test asks for a corpus the same way
// ("legacy", seed 42) instead of hand-assembling parameter structs. The
// scenario axes follow the questions the paper leaves open — how the
// promotion algorithm and the fan-network skew shape what gets promoted
// (§6) — plus an activity-mix axis the stochastic model (arXiv:1202.0031)
// makes expressible.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/synthetic.h"

namespace digg::data {

struct ScenarioSpec {
  std::string name;
  std::string description;  // one line, for --help style listings
  SyntheticParams params;   // params.model_id names the generative model
  std::uint64_t seed = 42;

  [[nodiscard]] const std::string& model_id() const noexcept {
    return params.model_id;
  }
};

/// Registered scenario names, in listing order ("legacy" first).
[[nodiscard]] std::vector<std::string> scenario_names();

/// The named scenario with `seed` substituted. Throws std::invalid_argument
/// naming the known scenarios for an unknown name.
[[nodiscard]] ScenarioSpec make_scenario(std::string_view name,
                                         std::uint64_t seed = 42);

/// Shrinks a scenario for smoke tests and perf harnesses: `users`/`stories`
/// replace the population and story counts and the simulation step is
/// coarsened to keep tiny runs fast. Keeps everything else — model,
/// promotion rule, skew — so downscaled runs still exercise the scenario's
/// distinguishing machinery.
void downscale(ScenarioSpec& spec, std::size_t users, std::size_t stories);

}  // namespace digg::data

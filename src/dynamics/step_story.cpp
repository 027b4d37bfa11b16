#include "src/dynamics/step_story.h"

#include <string>

#include "src/obs/metrics.h"

namespace digg::dynamics {

void check_step(const char* simulator, Minutes step, Minutes horizon) {
  if (step <= 0.0)
    throw std::invalid_argument(std::string(simulator) + ": step <= 0");
  if (horizon < step)
    throw std::invalid_argument(std::string(simulator) + ": horizon < step");
}

std::optional<UserId> pick_unexposed(const stats::DiscreteSampler& sampler,
                                     const platform::VisibilitySet& vis,
                                     stats::Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto user = static_cast<UserId>(sampler.sample(rng));
    if (!vis.has_voted(user) && !vis.can_see(user)) return user;
  }
  return std::nullopt;
}

void count_story(const StoryRun& run, std::uint64_t ticks) {
  static obs::Counter& stories =
      obs::Registry::global().counter("dynamics.stories_simulated");
  static obs::Counter& ticks_simulated =
      obs::Registry::global().counter("dynamics.ticks_simulated");
  static obs::Counter& fan_votes =
      obs::Registry::global().counter("dynamics.fan_votes");
  static obs::Counter& discovery_votes =
      obs::Registry::global().counter("dynamics.discovery_votes");
  stories.inc();
  ticks_simulated.inc(ticks);
  fan_votes.inc(run.fan_channel_votes);
  discovery_votes.inc(run.discovery_votes);
}

}  // namespace digg::dynamics

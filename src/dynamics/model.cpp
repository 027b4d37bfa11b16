#include "src/dynamics/model.h"

#include <utility>

#include "src/obs/recorder.h"
#include "src/runtime/parallel.h"
#include "src/runtime/thread_pool.h"

namespace digg::dynamics {

namespace {

/// Finished stories simulate_each may hold back per pool thread while an
/// earlier story is still running (the reorder window).
constexpr std::size_t kReorderWindowPerThread = 64;

}  // namespace

void simulate_each(const platform::Site& site, const Simulator& sim,
                   const std::vector<Submission>& submissions,
                   Minutes spacing_minutes,
                   const std::function<void(SimulatedStory&&)>& on_story) {
  obs::Span span("dynamics.simulate_batch");
  // Submission times accumulate serially, exactly as a one-story-at-a-time
  // loop would step its clock.
  std::vector<Minutes> submitted_at(submissions.size());
  Minutes t = 0.0;
  for (Minutes& at : submitted_at) {
    at = t;
    t += spacing_minutes;
  }
  runtime::parallel_for_ordered<SimulatedStory>(
      submissions.size(),
      kReorderWindowPerThread * runtime::default_threads(),
      [&](std::size_t k) {
        const auto& [submitter, traits] = submissions[k];
        platform::StoryState state =
            site.submit(static_cast<StoryId>(k), submitter, traits.general,
                        submitted_at[k]);
        SimulatedStory out;
        out.run = sim.run_story(state, traits);
        out.story = std::move(state.story);
        return out;
      },
      [&](std::size_t, SimulatedStory&& story) { on_story(std::move(story)); },
      {.grain = 1});
}

std::vector<SimulatedStory> simulate_batch(
    const platform::Site& site, const Simulator& sim,
    const std::vector<Submission>& submissions, Minutes spacing_minutes) {
  std::vector<SimulatedStory> out;
  out.reserve(submissions.size());
  simulate_each(site, sim, submissions, spacing_minutes,
                [&out](SimulatedStory&& story) {
                  out.push_back(std::move(story));
                });
  return out;
}

}  // namespace digg::dynamics

#include "src/dynamics/model.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/dynamics/stochastic_model.h"
#include "src/dynamics/vote_model.h"
#include "src/obs/trace.h"
#include "src/runtime/parallel.h"
#include "src/runtime/thread_pool.h"

namespace digg::dynamics {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Model>> prototypes;
};

/// The global model registry. Built-ins are installed on first touch (no
/// static-initialization-order or dead-stripping hazards — a static
/// self-registration object in a static library would be dropped by the
/// linker unless referenced).
Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    reg->prototypes.emplace(kLegacyModelId, std::make_unique<VoteModel>());
    reg->prototypes.emplace(kStochasticModelId,
                            std::make_unique<StochasticModel>());
    return reg;
  }();
  return *r;
}

/// Finished stories simulate_each may hold back per pool thread while an
/// earlier story is still running (the reorder window).
constexpr std::size_t kReorderWindowPerThread = 64;

std::string known_ids_joined(const Registry& reg) {
  std::string out;
  for (const auto& [id, proto] : reg.prototypes) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

}  // namespace

bool register_model(std::unique_ptr<Model> prototype) {
  if (prototype == nullptr)
    throw std::invalid_argument("register_model: null prototype");
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const std::string id = prototype->id();
  return reg.prototypes.emplace(id, std::move(prototype)).second;
}

bool model_registered(std::string_view id) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  return reg.prototypes.find(std::string(id)) != reg.prototypes.end();
}

std::vector<std::string> registered_model_ids() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> ids;
  ids.reserve(reg.prototypes.size());
  for (const auto& [id, proto] : reg.prototypes) ids.push_back(id);
  return ids;  // std::map iterates sorted
}

std::unique_ptr<Model> make_model(std::string_view id) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.prototypes.find(std::string(id));
  if (it == reg.prototypes.end())
    throw std::invalid_argument("unknown generative model id '" +
                                std::string(id) +
                                "' (known: " + known_ids_joined(reg) + ")");
  return it->second->clone();
}

void simulate_each(const platform::Site& site, const Simulator& sim,
                   const std::vector<Submission>& submissions,
                   Minutes spacing_minutes,
                   const std::function<void(SimulatedStory&&)>& on_story) {
  obs::Span span("simulate_batch", "dynamics");
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

#pragma once
// The two-mechanism vote model of §5.1, made generative — model id
// "two-mechanism" (model.h).
//
// The paper argues interest in a story spreads by two mechanisms:
//   1. interest-based — users unconnected to prior voters discover the story
//      independently (upcoming queue while unpromoted, front page after
//      promotion) and digg it with probability governed by its *general
//      appeal*;
//   2. network-based — fans of prior voters see the story in the Friends
//      interface ("social browsing") and digg it with probability governed
//      by its *community appeal*.
//
// A story interesting to a narrow community (high community appeal, low
// general appeal) spreads within that community only; a broadly interesting
// story spreads from many independent seeds. Running this model on a
// realistic fan network reproduces Figs. 1, 3 and 4 and gives the training
// signal for the §5.2 predictor.
//
// The simulation advances in fixed steps (default: one minute, matching the
// time resolution of Fig. 1); per-channel vote counts per step are Poisson.
// run_story runs the shared per-story stepper (step_story.h), so each story
// draws from the simulator's rng.split(story_id) substream (the RNG contract
// in model.h): a story's votes do not depend on which other stories ran
// before it.

#include <cstdint>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/dynamics/model.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

/// Rates are constants: the fan channel's in step_story.h, the rest in
/// vote_model.cpp.
struct VoteModelParams {
  /// Which mechanisms run: both, or one switched off for the mechanism
  /// ablation (core/ablation.h). A switched-off channel runs at rate 0.0,
  /// so the model still makes every draw the full model makes.
  enum class Channels { kBoth, kNoFanChannel, kNoDiscovery };
  Channels channels = Channels::kBoth;

  /// Simulation step and horizon. 4 days saturates vote counts (Fig. 1).
  Minutes step = 1.0;
  Minutes horizon = 4.0 * platform::kMinutesPerDay;
};

/// Drives stories through the two-mechanism vote model.
class VoteSimulator final : public Simulator {
 public:
  VoteSimulator(const platform::Site& site, VoteModelParams params,
                stats::Rng rng);

  StoryRun run_story(platform::StoryState& state,
                     const StoryTraits& traits) const override;

 private:
  const platform::Site* site_;
  VoteModelParams params_;
  stats::Rng rng_;  // base stream; per-story draws come from rng_.split(id)
  /// Out-of-network voters, weighted by capped activity: Fig. 2(b)'s
  /// heavy-tailed per-user vote counts come from this skew, while the long
  /// inactive tail is what makes most voters vote only once.
  stats::DiscreteSampler discovery_sampler_;
};

}  // namespace digg::dynamics

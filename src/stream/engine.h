#pragma once
// The streaming vote-ingestion engine. Replays an EventStream (event.h) and
// maintains per-story state as votes arrive. It owns no visibility set: it
// reads each story's vote prefix, which it already holds (the stream's
// columns; in live mode a bounded buffer), through core/prefix_visibility.h
// — the routines the batch profiles call:
//
//   - replay: a story slice that starts below the horizon makes one
//     core::influence_curve call over its first min(slice end, horizon)
//     voters. That one first-cover pass over their fan rows yields the
//     influence after every prefix length and, per vote, whether the voter
//     is a fan of an earlier voter (in-network);
//   - live mode: vote k is in-network iff core::in_network finds an earlier
//     voter in the voter's friends row, and the influence curve is
//     recounted (at most `horizon` fan rows) when a checkpoint reads it;
//   - checkpoints: v6/v10/v20 in-network counts and Fig. 3(a) influence
//     are recorded when the checkpoint vote lands, and so are the online
//     hooks — the (v10, fans1) prediction and the Bayes fit, both at vote
//     10 (the fit's exposure sum reads the curve in vote order), and the
//     June-2006 43-vote promotion rule.
//
// Past the horizon (all checkpoints recorded) a vote changes only the vote
// count: replay adds the rest of a slice in one step and reads the 43rd
// vote's time if the slice crosses it; live mode bumps a counter per vote.
//
// Replay order: the global (time, story slot, vote index) order is never
// materialised. run_until(L) first cuts the stream at its L-th event: it
// bisects the time T of that event (a sum of binary searches over the
// per-story time columns per probe, at most 64 probes), takes every vote
// before T and hands out the votes tied at T in slot order. That yields
// each story's vote count within the first L events with no per-event
// work; a cut at or past the stream total is just every column's length.
// It then applies each story's slice beyond its current progress in vote
// order. Per-story state only depends on that story's own prefix, so
// applying story-major inside a shard yields the same outcomes as strict
// global interleaving while touching each vote column once, sequentially —
// the access pattern mmapped corpora want.
//
// Parallelism: stories are hashed onto a FIXED number of shards (independent
// of the thread count) and shards run on the runtime pool via parallel_for,
// whose chunk layout is also thread-count invariant. A story belongs to
// exactly one shard, shards share no mutable state, and results merge by
// story slot — so outputs are bit-identical for any DIGG_THREADS, the same
// determinism contract as src/runtime.
//
// Equivalence contract (proven by tests/stream_test.cpp): after a full
// replay, per-story cascade/influence checkpoint values, fans1, final votes
// and the interestingness label are bit-identical to the batch pipeline
// (core::cascade_profile / core::influence_profile / core::extract_features)
// on the same corpus.
//
// Checkpoint/restore: engine state serializes through the shared DIGGSNAP
// section mechanism (data/snapshot_format.h) — see checkpoint.h. Restore
// rebuilds nothing; the one derived column it carries is each story's
// influence after its applied prefix, so result() never recounts it in
// replay. A restored engine resumes mid-stream and reaches a final state
// bit-identical to an uninterrupted run.
//
// Validation and identity: an engine over a stream does no O(votes) work
// of its own. build_event_stream (source.h) validated the columns and
// folded their identity once (event.h); the replay constructor throws a
// defect the build recorded, refuses a story table that differs from the
// one built (an O(stories) digest), re-sums the event total, checks
// submitters against the graph and folds the graph shape into the
// identity to make the checkpoint fingerprint.
//
// Live mode (src/serve): constructed over a network alone, the engine has
// no EventStream — stories arrive through live_submit and votes through
// live_vote, in arrival order. Per-story state is identical to replay mode;
// the extra costs are a bounded prefix buffer per story (the first
// `horizon` voters and times) standing in for the stream's columns, which a
// checkpoint carries, and the per-vote in_network probe below the horizon.
// Votes past the horizon keep the bare counter-bump cost.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/data/snapshot_format.h"
#include "src/digg/types.h"
#include "src/stream/bayes.h"
#include "src/stream/event.h"

namespace digg::stream {

struct StreamParams {
  /// In-network (cascade) checkpoints, counted in votes after the
  /// submitter's digg: the paper's v6/v10/v20 (Figs. 3b, 4, 5).
  static constexpr std::array<std::uint32_t, 3> cascade_checkpoints = {
      6, 10, 20};
  /// Influence checkpoints in total votes including the submitter's digg:
  /// Fig. 3(a)'s at-submission / after-10 / after-20.
  static constexpr std::array<std::uint32_t, 3> influence_checkpoints = {
      1, 11, 21};
  /// Interestingness label threshold (§5.1): final votes > threshold.
  std::size_t interesting_threshold = core::kInterestingnessThreshold;
  /// When set, the engine predicts interestingness online the moment the
  /// v10 checkpoint records — the §5.2 decision, taken at vote 10 instead
  /// of after the fact. It must be trained on FeatureSet::kPaper (the
  /// constructors refuse any other) and outlive the engine.
  const core::InterestingnessPredictor* predictor = nullptr;
  /// Online Bayesian rate-model fit (bayes.h): when enabled, the engine
  /// fits per-channel rates from the first ten vote timings at the same
  /// vote-10 decision point and predicts the final vote count — the
  /// model-based rival to the C4.5 hook above.
  BayesFitParams bayes;
};

/// Everything the engine knows about one story. Checkpoint vectors align
/// with StreamParams' checkpoint lists; values for checkpoints the story has
/// not reached saturate over the votes seen so far, matching the batch
/// profiles' saturation semantics.
struct StoryOutcome {
  platform::StoryId id = 0;
  platform::UserId submitter = 0;
  std::vector<std::size_t> cascade;    // in-network count per checkpoint
  std::vector<std::size_t> influence;  // influence per checkpoint
  std::size_t fans1 = 0;
  std::size_t final_votes = 0;  // votes applied so far (total at stream end)
  bool interesting = false;     // final_votes > interesting_threshold
  /// Online §5.2 verdict at the v10 checkpoint (unset if the story never
  /// reached 10 votes, or no paper-feature predictor was supplied).
  std::optional<bool> predicted_interesting;
  /// Online Bayesian verdict at the v10 checkpoint (unset if the story
  /// never reached 10 votes, or the fit is disabled). The expected
  /// final vote count backs the verdict and feeds calibration plots.
  std::optional<bool> bayes_interesting;
  double bayes_expected_final = 0.0;  // meaningful iff bayes_interesting set
  /// Arrival time of the 43rd vote, the June-2006 promotion rule (unset if
  /// not reached).
  std::optional<platform::Minutes> promoted_time;

  friend bool operator==(const StoryOutcome&, const StoryOutcome&) = default;
};

struct StreamResult {
  std::vector<StoryOutcome> stories;  // by slot (stream story order)
  std::uint64_t events_applied = 0;

  friend bool operator==(const StreamResult&, const StreamResult&) = default;
};

/// Converts a full-replay result into the batch pipeline's feature rows
/// (v6/v10/v20 and influence-after-10 from the fixed checkpoints).
/// Bit-identical to core::extract_features on the same stories — the bridge
/// the equivalence tests and fig4/fig5 reuse go through. The params argument
/// is unused.
[[nodiscard]] std::vector<core::StoryFeatures> to_story_features(
    const StreamResult& result, const StreamParams& = {});

class StreamEngine {
 public:
  /// `stream`, `network`, and params.predictor must outlive the engine.
  /// O(stories): throws std::invalid_argument with the defect
  /// build_event_stream recorded (vote columns disagreeing, a vote time
  /// not finite or out of order), for a story table that is not the one
  /// built, an event total not matching the columns, a submitter outside
  /// the graph, or a predictor not trained on FeatureSet::kPaper.
  StreamEngine(const EventStream& stream, const graph::Digraph& network,
               StreamParams params = {});

  /// Live-ingest mode: an engine over `network` with no replay stream.
  /// Starts empty; stories and votes arrive through live_submit/live_vote
  /// (the src/serve ingest path). run_until/run_all are unavailable.
  /// Throws std::invalid_argument for a predictor not trained on
  /// FeatureSet::kPaper.
  explicit StreamEngine(const graph::Digraph& network,
                        StreamParams params = {});

  [[nodiscard]] bool live() const noexcept { return stream_ == nullptr; }
  /// Stories known so far (replay: the stream's story table; live: stories
  /// submitted so far). Story slots are always [0, story_count()).
  [[nodiscard]] std::uint32_t story_count() const noexcept {
    return static_cast<std::uint32_t>(progress_.size());
  }

  /// Registers a live story and applies the submitter's own digg (vote 0)
  /// at `time`; returns the story's slot. Live mode only; single caller at
  /// a time (the serve coordinator). Throws std::invalid_argument for a
  /// submitter outside the graph.
  std::uint32_t live_submit(platform::StoryId id, platform::UserId submitter,
                            platform::Minutes time);
  /// Applies one live vote. Times must be finite and, within a story,
  /// non-decreasing (the serve front-end's per-story arrival order); below
  /// the horizon a voter digs a story once (the submitter's digg counts).
  /// Violations throw std::invalid_argument before anything changes; the
  /// serve front-end refuses each of them first, so under serve these are
  /// precondition checks. Safe to call concurrently for DIFFERENT stories
  /// (the serve drain cycle applies each shard's votes, slot % kShardCount,
  /// on one lane); one story's votes need one caller, in order.
  void live_vote(std::uint32_t slot, platform::UserId voter,
                 platform::Minutes time);
  /// Live mode: one story's applied voters below the horizon (the
  /// submitter first) and its latest vote time — what live_vote's
  /// duplicate-voter and time-order checks read, so the serve front-end can
  /// refuse such a vote before it reaches a shard. Throws
  /// std::invalid_argument for an unknown slot.
  struct LivePrefix {
    std::span<const platform::UserId> voters;
    platform::Minutes last_time = 0.0;
  };
  [[nodiscard]] LivePrefix live_prefix(std::uint32_t slot) const;
  /// Total votes (the submitter's digg included) after which every
  /// checkpoint of a story is recorded and a vote is a bare counter bump:
  /// 21, the last cascade checkpoint plus the submitter's digg.
  [[nodiscard]] static constexpr std::uint64_t horizon() noexcept {
    return std::max<std::uint64_t>(
        StreamParams::cascade_checkpoints.back() + 1,
        StreamParams::influence_checkpoints.back());
  }
  /// Folds a drained batch into events_applied(). live_vote deliberately
  /// never touches the global counter (so shards can apply in parallel);
  /// the single drain coordinator calls this once per batch instead.
  void note_events_applied(std::uint64_t n) noexcept { events_applied_ += n; }

  /// Applies every event with ordinal < event_limit that has not been
  /// applied yet. Monotonic: a limit at or below events_applied() is a
  /// no-op (the stream cannot rewind). Replay mode only.
  void run_until(std::uint64_t event_limit);
  void run_all() { run_until(total_events()); }

  [[nodiscard]] std::uint64_t events_applied() const noexcept {
    return events_applied_;
  }
  /// Replay: the stream's cached event total. Live: events applied so far
  /// (the stream has no end).
  [[nodiscard]] std::uint64_t total_events() const noexcept {
    return stream_ ? stream_->total_events() : events_applied_;
  }

  /// Snapshot of every story's state as of events_applied(). Callable
  /// mid-stream (outcomes then describe the prefix seen so far); a pure
  /// read — an unreached influence checkpoint reports the influence after
  /// the applied prefix (replay stores it; live mode recounts it).
  [[nodiscard]] StreamResult result() const;

  /// One story's outcome as of the votes applied so far — the online query
  /// path (result() is this, over every slot). Not safe concurrently with
  /// live_vote on the same story. Throws std::invalid_argument for an
  /// unknown slot.
  [[nodiscard]] StoryOutcome query_story(std::uint32_t slot) const;

  /// Serializes engine progress as a DIGGSNAP checkpoint at `path`.
  void save_checkpoint(const std::filesystem::path& path) const;
  /// The checkpoint payload as in-memory sections (save_checkpoint is this
  /// plus write_section_file). Lets the serve layer serialize on the
  /// coordinator thread and hand the bytes to a background writer so disk
  /// latency never blocks ingest.
  [[nodiscard]] std::vector<data::snapfmt::Section> checkpoint_sections()
      const;
  /// Replaces engine progress with a checkpoint written by save_checkpoint
  /// against the SAME stream and params. Verifies container integrity, the
  /// stream fingerprint, config equality, and per-story prefix consistency;
  /// throws std::runtime_error with a distinct message per violation and
  /// leaves the engine unchanged. Rebuilds no derived state; O(stories).
  void restore_checkpoint(const std::filesystem::path& path);

  /// FNV-1a fingerprint of the stream's identity (stories and vote columns,
  /// folded by build_event_stream) and the network shape; checkpoints embed
  /// it so a restore against different data fails.
  /// Live engines have no stream at construction, so their fingerprint
  /// covers the network shape alone (plus a live-mode tag) — a live
  /// checkpoint still refuses to restore over a different graph.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Resident bytes of the per-story state: progress and checkpoint
  /// columns, plus the live prefix buffers. O(stories), never O(events):
  /// the stream itself is not materialised.
  [[nodiscard]] std::size_t state_bytes() const;

  /// Fixed shard fan-out: a shard is the stories with slot % kShardCount
  /// equal to its index. Also the parallel width cap of one engine run.
  static constexpr std::uint32_t kShardCount = 64;

 private:
  static constexpr std::uint32_t kUnrecorded = 0xffffffffu;
  /// The §5.2 decision point: the cascade checkpoint at which the C4.5
  /// hook and the Bayes fit both decide.
  static constexpr std::uint32_t kPredictAt = kFitVotes;

  struct Progress {
    std::uint64_t applied = 0;
    std::uint32_t innetwork = 0;  // running in-network count (to horizon)
    std::uint32_t fans1 = 0;
    std::uint8_t flags = 0;  // kHasPrediction | ... | kBayesYes
    /// Replay: influence after the applied prefix, stored at the end of
    /// each below-horizon slice, so query_story reads an unreached
    /// influence checkpoint instead of recounting it. Unused in live mode.
    std::uint32_t influence = 0;
    platform::Minutes promoted_time = 0.0;
    float bayes_estimate = 0.0f;  // expected final votes (kHasBayes set)
  };
  static constexpr std::uint8_t kHasPrediction = 1;
  static constexpr std::uint8_t kPredictedYes = 2;
  static constexpr std::uint8_t kPromoted = 4;
  static constexpr std::uint8_t kHasBayes = 8;
  static constexpr std::uint8_t kBayesYes = 16;

  /// One live-mode story: identity plus the bounded vote prefix. Only the
  /// first `horizon` voters/times are kept, since every read indexes below
  /// the horizon, so live per-story memory is O(horizon), not O(votes).
  struct LiveStory {
    platform::StoryId id = 0;
    platform::UserId submitter = 0;
    platform::Minutes last_time = 0.0;  // latest vote time (order check)
    std::vector<platform::UserId> prefix_voters;
    std::vector<platform::Minutes> prefix_times;
  };

  /// Mode-splitting accessors: replay mode reads the stream's columns, live
  /// mode the bounded prefix buffers. Every consumer indexes below the
  /// horizon, which both modes can serve.
  [[nodiscard]] platform::StoryId story_id(std::uint32_t slot) const {
    return stream_ ? stream_->stories[slot].id : live_stories_[slot].id;
  }
  [[nodiscard]] platform::UserId story_submitter(std::uint32_t slot) const {
    return stream_ ? stream_->stories[slot].submitter
                   : live_stories_[slot].submitter;
  }
  [[nodiscard]] platform::Minutes early_vote_time(std::uint32_t slot,
                                                  std::size_t k) const {
    return stream_ ? stream_->stories[slot].times()[k]
                   : live_stories_[slot].prefix_times[k];
  }
  /// The story's first n voters; n <= min(applied, horizon) in live mode.
  [[nodiscard]] std::span<const platform::UserId> voters_prefix(
      std::uint32_t slot, std::size_t n) const {
    return stream_ ? stream_->stories[slot].voters().first(n)
                   : std::span<const platform::UserId>(
                         live_stories_[slot].prefix_voters)
                         .first(n);
  }

  /// Applies vote p.applied of the story in `slot`, which lies below the
  /// horizon. `fan_of_earlier`: the voter is a fan of an earlier voter.
  /// `curve`: the story's influence curve over at least p.applied + 1
  /// votes (replay), or empty, in which case a checkpoint that reads it
  /// recounts it (live mode).
  void apply_early_vote(std::uint32_t slot, Progress& p, bool fan_of_earlier,
                        platform::Minutes time,
                        std::span<const std::uint32_t> curve);
  /// The exact prefix cut: each story's vote count within the first
  /// `limit` events of the (time, slot, index) order. Bisects the
  /// order-preserving keys of the finite vote times for the limit-th
  /// event's time, then fills its ties in slot order: O(64 · stories ·
  /// log votes-per-story) serial, independent of `limit` and of progress,
  /// with no per-event work and no event materialisation.
  [[nodiscard]] std::vector<std::uint64_t> prefix_cut(
      std::uint64_t limit) const;
  void record_checkpoints(std::uint32_t slot, Progress& p,
                          platform::Minutes now,
                          std::span<const std::uint32_t> curve);

  /// Shared tail of both constructors: the predictor's feature-set check.
  void init_config();

  const EventStream* stream_;  // nullptr in live mode
  const graph::Digraph* network_;
  StreamParams params_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t events_applied_ = 0;

  std::vector<Progress> progress_;          // by story slot
  std::vector<std::uint32_t> cascade_rec_;   // slot * |cc| + j, kUnrecorded
  std::vector<std::uint32_t> influence_rec_; // slot * |ic| + j, kUnrecorded
  std::vector<LiveStory> live_stories_;  // live mode only, by slot
};

}  // namespace digg::stream

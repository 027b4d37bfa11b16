#include "src/stream/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "src/core/prefix_visibility.h"
#include "src/data/snapshot_format.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/watchdog.h"
#include "src/runtime/parallel.h"

namespace digg::stream {
namespace {

// The checkpoint fingerprint: the network shape plus `tag`, which is the
// stream's identity (event.h, folded once by build_event_stream) in replay
// mode. A live engine has no stream at construction and passes a fixed
// mode tag instead (so a live checkpoint never restores into a replay
// engine whose stream happens to hash equal — it cannot, but the tag makes
// it structural).
constexpr std::uint64_t kLiveTag = 0x11fe5e42ull;  // arbitrary

std::uint64_t fingerprint_of(const graph::Digraph& network,
                             std::uint64_t tag) {
  const std::uint64_t words[3] = {network.node_count(), network.edge_count(),
                                  tag};
  return data::snapfmt::fnv1a(reinterpret_cast<const char*>(words),
                              sizeof(words));
}

// Order-preserving 64-bit key of a finite time: a <= b as doubles iff
// order_key(a) <= order_key(b). The sign bit lifts non-negatives above
// negatives, inverting a negative's bits reverses its magnitude order, and
// adding +0.0 folds -0.0 onto +0.0, which it compares equal to.
std::uint64_t order_key(platform::Minutes t) {
  const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

platform::Minutes time_of_key(std::uint64_t key) {
  return std::bit_cast<platform::Minutes>(
      (key >> 63) != 0 ? key & ~(std::uint64_t{1} << 63) : ~key);
}

constexpr auto& kCascade = StreamParams::cascade_checkpoints;
constexpr auto& kInfluence = StreamParams::influence_checkpoints;
constexpr std::uint32_t kLastCascade = kCascade.back();

}  // namespace

void StreamEngine::init_config() {
  if (params_.predictor != nullptr &&
      params_.predictor->feature_set() != core::FeatureSet::kPaper)
    throw std::invalid_argument(
        "stream predictor must be trained on the paper features (v10, "
        "fans1)");
}

StreamEngine::StreamEngine(const graph::Digraph& network, StreamParams params)
    : stream_(nullptr), network_(&network), params_(std::move(params)) {
  obs::Span span("stream.engine_init");
  init_config();
  fingerprint_ = fingerprint_of(network, kLiveTag);
}

StreamEngine::StreamEngine(const EventStream& stream,
                           const graph::Digraph& network, StreamParams params)
    : stream_(&stream), network_(&network), params_(std::move(params)) {
  obs::Span span("stream.engine_init");
  init_config();
  const std::size_t story_count = stream_->stories.size();
  if (story_count >= kUnrecorded)
    throw std::invalid_argument("too many stories for the stream engine");

  // build_event_stream validated the columns and folded their identity in
  // the stream's one O(votes) pass; what is left here is O(stories). A
  // table that is not the one built (edited afterwards, or never built) is
  // refused rather than re-validated.
  if (stream_->defect != nullptr)
    throw std::invalid_argument(stream_->defect);
  if (story_table_digest(stream_->stories) != stream_->table_digest)
    throw std::invalid_argument(
        "stream story table is not the one build_event_stream built");
  std::uint64_t total = 0;
  for (const platform::StoryView& s : stream_->stories) {
    if (s.submitter >= network.node_count())
      throw std::invalid_argument("stream story submitter out of graph range");
    total += s.vote_count();
  }
  if (total != stream_->total)
    throw std::invalid_argument("stream event total mismatches vote columns");

  fingerprint_ = fingerprint_of(network, stream_->identity);

  progress_.resize(story_count);
  for (std::uint32_t slot = 0; slot < story_count; ++slot)
    progress_[slot].fans1 = static_cast<std::uint32_t>(
        network.fan_count(stream_->stories[slot].submitter));
  cascade_rec_.assign(story_count * kCascade.size(), kUnrecorded);
  influence_rec_.assign(story_count * kInfluence.size(), kUnrecorded);
}

std::uint32_t StreamEngine::live_submit(platform::StoryId id,
                                        platform::UserId submitter,
                                        platform::Minutes time) {
  if (!live())
    throw std::logic_error("live_submit on a replay-mode stream engine");
  if (submitter >= network_->node_count())
    throw std::invalid_argument("live story submitter out of graph range");
  if (!std::isfinite(time))
    throw std::invalid_argument("live vote time must be finite");
  if (live_stories_.size() + 1 >= kUnrecorded)
    throw std::invalid_argument("too many stories for the stream engine");
  const auto slot = static_cast<std::uint32_t>(live_stories_.size());
  LiveStory ls;
  ls.id = id;
  ls.submitter = submitter;
  live_stories_.push_back(std::move(ls));
  Progress p;
  p.fans1 = static_cast<std::uint32_t>(network_->fan_count(submitter));
  progress_.push_back(p);
  cascade_rec_.insert(cascade_rec_.end(), kCascade.size(), kUnrecorded);
  influence_rec_.insert(influence_rec_.end(), kInfluence.size(), kUnrecorded);
  // Vote 0 is the submitter's own digg — the same convention every corpus
  // column and the batch pipeline use (types.h: voters.front()==submitter).
  live_vote(slot, submitter, time);
  return slot;
}

void StreamEngine::live_vote(std::uint32_t slot, platform::UserId voter,
                             platform::Minutes time) {
  if (!live())
    throw std::logic_error("live_vote on a replay-mode stream engine");
  if (slot >= live_stories_.size())
    throw std::invalid_argument("live vote for an unknown story slot");
  if (voter >= network_->node_count())
    throw std::invalid_argument("live voter out of graph range");
  if (!std::isfinite(time))
    throw std::invalid_argument("live vote time must be finite");
  LiveStory& ls = live_stories_[slot];
  Progress& p = progress_[slot];
  if (p.applied > 0 && time < ls.last_time)
    throw std::invalid_argument("live vote times must be non-decreasing");
  if (p.applied < horizon()) {
    // The bounded prefix, in which a voter digs once (the submitter's digg
    // is vote 0) — refused before anything mutates. Later voters are
    // unknown here, so the in-network flag is one friends-row probe against
    // the voters so far: the relation the replay pass reads off fan rows.
    if (std::ranges::find(ls.prefix_voters, voter) != ls.prefix_voters.end())
      throw std::invalid_argument("live voter already dugg this story");
    const bool fan_of_earlier =
        core::in_network(ls.prefix_voters, voter, *network_);
    ls.prefix_voters.push_back(voter);
    ls.prefix_times.push_back(time);
    ls.last_time = time;
    apply_early_vote(slot, p, fan_of_earlier, time, {});
    return;
  }
  // Past the horizon every vote is a bare counter bump — the O(1) tail.
  ls.last_time = time;
  if (++p.applied == kPromotionVotes) {
    p.flags |= kPromoted;
    p.promoted_time = time;
  }
}

StreamEngine::LivePrefix StreamEngine::live_prefix(std::uint32_t slot) const {
  if (slot >= live_stories_.size())
    throw std::invalid_argument("live prefix for an unknown story slot");
  const LiveStory& ls = live_stories_[slot];
  return {ls.prefix_voters, ls.last_time};
}

void StreamEngine::record_checkpoints(std::uint32_t slot, Progress& p,
                                      platform::Minutes now,
                                      std::span<const std::uint32_t> curve) {
  // Influence after each prefix length. Live mode has no curve and recounts
  // it only when an influence checkpoint lands (at most horizon fan rows);
  // the decision point's vote is one, so the Bayes fit reads it too.
  static_assert(std::ranges::find(kInfluence, kPredictAt + 1) !=
                kInfluence.end());
  std::array<std::uint32_t, horizon()> recount{};
  if (curve.empty() &&
      std::ranges::find(kInfluence, p.applied) != kInfluence.end()) {
    const auto out = std::span(recount).first(p.applied);
    core::influence_curve(voters_prefix(slot, p.applied), *network_, out);
    curve = out;
  }
  for (std::size_t j = 0; j < kInfluence.size(); ++j)
    if (kInfluence[j] == p.applied) {
      influence_rec_[slot * kInfluence.size() + j] = curve[p.applied - 1];
      obs::record_event(obs::EventKind::kCheckpointRecorded,
                        slot % kShardCount, slot, p.applied);
    }
  for (std::size_t j = 0; j < kCascade.size(); ++j) {
    if (static_cast<std::uint64_t>(kCascade[j]) + 1 != p.applied) continue;
    cascade_rec_[slot * kCascade.size() + j] = p.innetwork;
    if (kCascade[j] != kPredictAt) continue;
    // The §5.2 decision point: every input of both predictors is final the
    // instant vote 10 lands, so the story is scored here, once.
    if (params_.predictor != nullptr) {
      core::StoryFeatures f;
      f.story = story_id(slot);
      f.submitter = story_submitter(slot);
      f.v10 = p.innetwork;
      f.fans1 = p.fans1;
      p.flags |= kHasPrediction;
      if (params_.predictor->predict(f)) p.flags |= kPredictedYes;
    }
    if (params_.bayes.enabled) {
      static obs::Counter& fits =
          obs::Registry::global().counter("stream.bayes_fits");
      // Fit the rate model and integrate it forward, off the per-vote path
      // and bounded by the integration step count. Exposure sums the
      // influence before each vote times its gap, in vote order.
      double exposure = 0.0;
      for (std::uint32_t k = 1; k <= kFitVotes; ++k)
        exposure += static_cast<double>(curve[k - 1]) *
                    (early_vote_time(slot, k) - early_vote_time(slot, k - 1));
      BayesEvidence evidence;
      evidence.in_network_votes = p.innetwork;
      evidence.out_network_votes = kFitVotes - p.innetwork;
      evidence.exposure_watcher_minutes = exposure;
      evidence.elapsed_minutes = now - early_vote_time(slot, 0);
      evidence.audience = static_cast<double>(curve[p.applied - 1]);
      evidence.votes = kFitVotes + 1;
      evidence.population = static_cast<double>(network_->node_count());
      const double expected =
          expected_final_votes(evidence, fit_rates(evidence));
      p.bayes_estimate = static_cast<float>(expected);
      p.flags |= kHasBayes;
      if (expected > static_cast<double>(params_.interesting_threshold))
        p.flags |= kBayesYes;
      fits.inc();
    }
  }
}

void StreamEngine::apply_early_vote(std::uint32_t slot, Progress& p,
                                    bool fan_of_earlier,
                                    platform::Minutes time,
                                    std::span<const std::uint32_t> curve) {
  // The in-network counter ticks inside the cascade window only; vote 0,
  // the submitter's digg, is never a fan of an earlier voter.
  if (fan_of_earlier && p.applied <= kLastCascade) ++p.innetwork;
  ++p.applied;
  record_checkpoints(slot, p, time, curve);
  if (p.applied == horizon()) {
    static obs::Counter& retired =
        obs::Registry::global().counter("stream.stories_retired");
    retired.inc();
    obs::record_event(obs::EventKind::kStoryRetired, slot % kShardCount,
                      slot, p.applied);
  }
}

std::vector<std::uint64_t> StreamEngine::prefix_cut(
    std::uint64_t limit) const {
  const std::vector<platform::StoryView>& stories = stream_->stories;
  std::vector<std::uint64_t> cut(stories.size());
  if (limit >= stream_->total_events()) {
    for (std::size_t slot = 0; slot < stories.size(); ++slot)
      cut[slot] = stories[slot].vote_count();
    return cut;
  }

  // Bisect for the time T of the limit-th event: the least key whose time
  // has at least `limit` votes at or before it. Every key between two
  // finite times' keys decodes to a finite time (build_event_stream refuses
  // non-finite ones), and decoding is monotone, so the count is monotone in
  // the key and the search ends on T itself in at most 64 probes.
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const platform::StoryView& s : stories) {
    const auto times = s.times();
    if (times.empty()) continue;
    lo = std::min(lo, order_key(times.front()));
    hi = std::max(hi, order_key(times.back()));
  }
  // Each probe counts the votes at or before its time. Story i's count is
  // bracketed by [first_i, last_i]: a probe that lands at or past `limit`
  // caps every later probe's time, so its counts become the upper bounds,
  // and one that falls short floors them. A story whose bracket closes has
  // the same count at every later probe and drops out into `settled`. The
  // counts stay exact, so the bisection takes the path of a full count.
  struct Bracket {
    std::size_t slot;
    std::size_t first;  // count at a probe known to be below T
    std::size_t last;   // count at a probe known to be at or past T
    std::size_t probe;  // count at the current probe
  };
  std::vector<Bracket> open;
  open.reserve(stories.size());
  for (std::size_t slot = 0; slot < stories.size(); ++slot)
    if (!stories[slot].times().empty())
      open.push_back({slot, 0, stories[slot].times().size(), 0});
  std::uint64_t settled = 0;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const platform::Minutes t = time_of_key(mid);
    std::uint64_t count = settled;
    for (Bracket& b : open) {
      const platform::Minutes* times = stories[b.slot].times().data();
      b.probe = static_cast<std::size_t>(
          std::upper_bound(times + b.first, times + b.last, t) - times);
      count += b.probe;
    }
    const bool at_or_past = count >= limit;
    if (at_or_past)
      hi = mid;
    else
      lo = mid + 1;
    std::size_t kept = 0;
    for (Bracket& b : open) {
      (at_or_past ? b.last : b.first) = b.probe;
      if (b.first == b.last)
        settled += b.first;
      else
        open[kept++] = b;
    }
    open.resize(kept);
  }
  const platform::Minutes cut_time = time_of_key(lo);

  // Every vote before T is in the prefix; the votes tied at T fill the rest
  // in slot order, each story's in index order — exactly the (time, slot,
  // index) order among equal times.
  std::uint64_t rest = limit;
  for (std::size_t slot = 0; slot < stories.size(); ++slot) {
    const auto times = stories[slot].times();
    cut[slot] = static_cast<std::uint64_t>(
        std::lower_bound(times.begin(), times.end(), cut_time) -
        times.begin());
    rest -= cut[slot];
  }
  for (std::size_t slot = 0; rest > 0 && slot < stories.size(); ++slot) {
    const auto times = stories[slot].times();
    const auto tied = static_cast<std::uint64_t>(
        std::upper_bound(times.begin() + static_cast<std::ptrdiff_t>(cut[slot]),
                         times.end(), cut_time) -
        times.begin()) - cut[slot];
    const std::uint64_t take = std::min(tied, rest);
    cut[slot] += take;
    rest -= take;
  }
  return cut;
}

void StreamEngine::run_until(std::uint64_t event_limit) {
  if (live())
    throw std::logic_error(
        "run_until on a live-mode stream engine (use live_vote)");
  event_limit = std::min<std::uint64_t>(event_limit, total_events());
  if (event_limit <= events_applied_) return;
  obs::Span span("stream.run");
  obs::Counter& votes = obs::Registry::global().counter("stream.votes_ingested");
  obs::Histogram& ingest_story_us =
      obs::Registry::global().histogram("stream.ingest_story_us");
  // Replay liveness: a shard that goes 30s without finishing a story is
  // stuck (a healthy story is microseconds). The watchdog dumps the flight
  // recorder, whose per-shard events identify the wedged slot.
  obs::WatchdogTask watchdog("stream.run_until", 30'000);

  // The exact prefix cut: how many of the first event_limit events belong
  // to each story. It extends progress_, which always describes an exact
  // global prefix (run_until applies exact prefixes; restore_checkpoint
  // verifies the same invariant).
  const std::vector<std::uint64_t> target = prefix_cut(event_limit);

  // Parallel apply, story-major inside each shard: per-story state depends
  // only on that story's own vote prefix, so outcomes are identical to
  // strict global interleaving, and each vote column is walked once,
  // sequentially — the access pattern mmapped corpora reward.
  obs::Counter& prefix_passes =
      obs::Registry::global().counter("stream.prefix_passes");
  runtime::parallel_for(
      kShardCount,
      [&](std::size_t s) {
        std::uint64_t done = 0;
        std::uint64_t passes = 0;
        for (std::uint32_t slot = static_cast<std::uint32_t>(s);
             slot < stream_->stories.size(); slot += kShardCount) {
          Progress& p = progress_[slot];
          const std::uint64_t end = target[slot];
          if (p.applied >= end) continue;
          const platform::StoryView& sv = stream_->stories[slot];
          const auto story_start = std::chrono::steady_clock::now();
          const std::uint64_t begin = p.applied;
          if (p.applied < horizon()) {
            // One first-cover pass over the slice's voters below the
            // horizon gives every in-network flag and the whole influence
            // curve that the checkpoints, the v10 prediction and the Bayes
            // fit read.
            const auto n =
                static_cast<std::size_t>(std::min(end, horizon()));
            std::array<std::uint32_t, horizon()> curve{};
            std::array<bool, horizon()> fan_of_earlier{};
            const auto curve_n = std::span(curve).first(n);
            core::influence_curve(sv.voters().first(n), *network_, curve_n,
                                  std::span(fan_of_earlier).first(n));
            ++passes;
            const auto times = sv.times();
            while (p.applied < n)
              apply_early_vote(slot, p, fan_of_earlier[p.applied],
                               times[p.applied], curve_n);
            p.influence = curve_n[n - 1];
          }
          if (p.applied < end) {
            // Past the horizon the rest of the slice is one addition; the
            // 43-vote rule reads its vote's time if the slice crosses it.
            if (p.applied < kPromotionVotes && end >= kPromotionVotes) {
              p.flags |= kPromoted;
              p.promoted_time = sv.times()[kPromotionVotes - 1];
            }
            p.applied = end;
          }
          // Sampled (the shard pass's first slice, then one per 1024
          // votes): the flight recorder wants recent context, not every
          // vote.
          const std::uint64_t next = done + (end - begin);
          if (done == 0 || done / 1024 != next / 1024)
            obs::record_event(obs::EventKind::kVoteApplied,
                              static_cast<std::uint32_t>(s), slot, end);
          done = next;
          ingest_story_us.observe(std::chrono::duration<double, std::micro>(
                                      std::chrono::steady_clock::now() -
                                      story_start)
                                      .count());
          watchdog.beat();
        }
        if (done > 0) votes.inc(done);
        if (passes > 0) prefix_passes.inc(passes);
      },
      {.grain = 1});
  events_applied_ = event_limit;
  obs::Registry::global().gauge("stream.state_bytes").set(
      static_cast<double>(state_bytes()));
}

StoryOutcome StreamEngine::query_story(std::uint32_t slot) const {
  if (slot >= progress_.size())
    throw std::invalid_argument("query for an unknown story slot");
  const Progress& p = progress_[slot];
  StoryOutcome o;
  o.id = story_id(slot);
  o.submitter = story_submitter(slot);
  o.fans1 = p.fans1;
  o.final_votes = p.applied;
  o.interesting = p.applied > params_.interesting_threshold;
  // Unreached checkpoints saturate over the votes seen so far, matching
  // the batch profiles. An unrecorded cascade checkpoint's count is just
  // the running counter (all applied votes are inside its window); an
  // unrecorded influence checkpoint is the influence after the applied
  // prefix, which is below the horizon (0 for a story with no votes yet):
  // replay stored it with the prefix, live mode recounts it.
  o.cascade.resize(kCascade.size());
  for (std::size_t j = 0; j < kCascade.size(); ++j) {
    const std::uint32_t rec = cascade_rec_[slot * kCascade.size() + j];
    o.cascade[j] = rec != kUnrecorded ? rec : p.innetwork;
  }
  std::uint32_t now = p.influence;
  if (live() && p.applied > 0 && p.applied < kInfluence.back()) {
    std::array<std::uint32_t, horizon()> curve{};
    const auto out = std::span(curve).first(p.applied);
    core::influence_curve(voters_prefix(slot, p.applied), *network_, out);
    now = out.back();
  }
  o.influence.resize(kInfluence.size());
  for (std::size_t j = 0; j < kInfluence.size(); ++j) {
    const std::uint32_t rec = influence_rec_[slot * kInfluence.size() + j];
    o.influence[j] = rec != kUnrecorded ? rec : now;
  }
  if (p.flags & kHasPrediction)
    o.predicted_interesting = (p.flags & kPredictedYes) != 0;
  if (p.flags & kHasBayes) {
    o.bayes_interesting = (p.flags & kBayesYes) != 0;
    o.bayes_expected_final = p.bayes_estimate;
  }
  if (p.flags & kPromoted) o.promoted_time = p.promoted_time;
  return o;
}

StreamResult StreamEngine::result() const {
  static obs::Histogram& query_us =
      obs::Registry::global().histogram("stream.query_us");
  obs::Span span("stream.result", events_applied_, &query_us);
  StreamResult out;
  out.events_applied = events_applied_;
  out.stories.reserve(progress_.size());
  for (std::uint32_t slot = 0; slot < progress_.size(); ++slot)
    out.stories.push_back(query_story(slot));
  return out;
}

std::size_t StreamEngine::state_bytes() const {
  std::size_t bytes = progress_.capacity() * sizeof(Progress) +
                      cascade_rec_.capacity() * sizeof(std::uint32_t) +
                      influence_rec_.capacity() * sizeof(std::uint32_t) +
                      live_stories_.capacity() * sizeof(LiveStory);
  for (const LiveStory& ls : live_stories_)
    bytes += ls.prefix_voters.capacity() * sizeof(platform::UserId) +
             ls.prefix_times.capacity() * sizeof(platform::Minutes);
  return bytes;
}

std::vector<core::StoryFeatures> to_story_features(const StreamResult& result,
                                                   const StreamParams&) {
  // Outcome columns follow the checkpoint lists: cascade {6, 10, 20},
  // influence {1, 11, 21}; influence10 is the influence after 11 votes.
  static_assert(kCascade == std::array<std::uint32_t, 3>{6, 10, 20});
  static_assert(kInfluence[1] == 11);
  std::vector<core::StoryFeatures> rows;
  rows.reserve(result.stories.size());
  for (const StoryOutcome& o : result.stories) {
    core::StoryFeatures f;
    f.story = o.id;
    f.submitter = o.submitter;
    f.v6 = o.cascade[0];
    f.v10 = o.cascade[1];
    f.v20 = o.cascade[2];
    f.fans1 = o.fans1;
    f.influence10 = o.influence[1];
    f.final_votes = o.final_votes;
    f.interesting = o.interesting;
    rows.push_back(f);
  }
  return rows;
}

}  // namespace digg::stream

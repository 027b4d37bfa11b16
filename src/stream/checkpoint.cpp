#include "src/stream/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/data/snapshot_format.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/stream/engine.h"

namespace digg::stream {

namespace snapfmt = data::snapfmt;

namespace {

struct Meta {
  std::uint32_t version = 0;
  bool predictor_armed = false;
  std::uint64_t fingerprint = 0;
  std::uint64_t total_events = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t story_count = 0;
  std::uint64_t interesting_threshold = 0;
  bool bayes_enabled = false;
  bool live = false;
};

Meta read_meta(const snapfmt::MmapSectionFile& file) {
  snapfmt::ByteReader r = file.open(snapfmt::kStreamMeta);
  Meta m;
  m.version = r.pod<std::uint32_t>();
  if (m.version != kStreamCheckpointVersion)
    throw std::runtime_error(file.context() +
                             "unsupported stream checkpoint version " +
                             std::to_string(m.version));
  m.predictor_armed = r.pod<std::uint32_t>() != 0;
  m.fingerprint = r.pod<std::uint64_t>();
  m.total_events = r.pod<std::uint64_t>();
  m.events_applied = r.pod<std::uint64_t>();
  m.story_count = r.pod<std::uint64_t>();
  m.interesting_threshold = r.pod<std::uint64_t>();
  m.bayes_enabled = r.pod<std::uint32_t>() != 0;
  m.live = r.pod<std::uint32_t>() != 0;
  return m;
}

// True iff per-story vote counts `applied` cut the stream's global (time,
// story slot, vote index) order — the order run_until applies — at one
// point: every counted vote precedes every uncounted one. Each story's
// column is in that order already, so it suffices to compare the latest
// counted vote against the earliest uncounted one: O(stories), no merge.
bool is_stream_prefix(const EventStream& stream,
                      const std::vector<std::uint64_t>& applied) {
  using Key = std::tuple<platform::Minutes, std::size_t, std::uint64_t>;
  std::optional<Key> last_in, first_out;
  for (std::size_t slot = 0; slot < applied.size(); ++slot) {
    const auto times = stream.stories[slot].times();
    const std::uint64_t a = applied[slot];
    if (a > times.size()) return false;
    if (a > 0) {
      const Key k{times[a - 1], slot, a - 1};
      if (!last_in || *last_in < k) last_in = k;
    }
    if (a < times.size()) {
      const Key k{times[a], slot, a};
      if (!first_out || k < *first_out) first_out = k;
    }
  }
  return !last_in || !first_out || *last_in < *first_out;
}

}  // namespace

CheckpointInfo read_checkpoint_info(const std::filesystem::path& path) {
  const snapfmt::MmapSectionFile file(path);
  file.verify_all();
  const Meta m = read_meta(file);
  return {m.version,        m.fingerprint, m.total_events,
          m.events_applied, m.story_count, m.live};
}

std::vector<snapfmt::Section> StreamEngine::checkpoint_sections() const {
  const std::uint64_t story_count = progress_.size();
  std::vector<snapfmt::Section> sections(live() ? 3 : 2);

  sections[0].type = snapfmt::kStreamMeta;
  snapfmt::ByteBuffer& meta = sections[0].body;
  meta.pod<std::uint32_t>(kStreamCheckpointVersion);
  meta.pod<std::uint32_t>(params_.predictor != nullptr ? 1 : 0);
  meta.pod<std::uint64_t>(fingerprint_);
  meta.pod<std::uint64_t>(total_events());
  meta.pod<std::uint64_t>(events_applied_);
  meta.pod<std::uint64_t>(story_count);
  meta.pod<std::uint64_t>(params_.interesting_threshold);
  meta.pod<std::uint32_t>(params_.bayes.enabled ? 1 : 0);
  meta.pod<std::uint32_t>(live() ? 1 : 0);

  sections[1].type = snapfmt::kStreamState;
  snapfmt::ByteBuffer& state = sections[1].body;
  std::vector<std::uint64_t> applied(story_count);
  std::vector<std::uint32_t> innetwork(story_count);
  std::vector<std::uint8_t> flags(story_count);
  std::vector<double> promoted(story_count, 0.0);
  std::vector<std::uint32_t> influence(story_count);
  for (std::uint64_t slot = 0; slot < story_count; ++slot) {
    applied[slot] = progress_[slot].applied;
    innetwork[slot] = progress_[slot].innetwork;
    flags[slot] = progress_[slot].flags;
    promoted[slot] = progress_[slot].promoted_time;
    influence[slot] = progress_[slot].influence;
  }
  state.column(applied);
  state.column(innetwork);
  state.column(flags);
  state.column(promoted);
  state.column(cascade_rec_);
  state.column(influence_rec_);
  state.column(influence);
  if (params_.bayes.enabled) {
    // The estimate column spares a restored engine re-deriving fits that
    // already fired; a fit still ahead reads only the prefix.
    std::vector<float> estimates(story_count, 0.0f);
    for (std::uint64_t slot = 0; slot < story_count; ++slot)
      estimates[slot] = progress_[slot].bayes_estimate;
    state.column(estimates);
  }

  if (live()) {
    sections[2].type = snapfmt::kServeStories;
    snapfmt::ByteBuffer& live_body = sections[2].body;
    std::vector<std::uint32_t> ids(story_count), submitters(story_count),
        prefix_len(story_count);
    std::vector<double> last_time(story_count);
    for (std::uint64_t slot = 0; slot < story_count; ++slot) {
      const LiveStory& ls = live_stories_[slot];
      ids[slot] = ls.id;
      submitters[slot] = ls.submitter;
      prefix_len[slot] = static_cast<std::uint32_t>(ls.prefix_voters.size());
      last_time[slot] = ls.last_time;
    }
    live_body.column(ids);
    live_body.column(submitters);
    live_body.column(prefix_len);
    live_body.pad8();
    live_body.column(last_time);
    for (const LiveStory& ls : live_stories_) live_body.column(ls.prefix_voters);
    live_body.pad8();
    for (const LiveStory& ls : live_stories_) live_body.column(ls.prefix_times);
  }

  return sections;
}

void StreamEngine::save_checkpoint(const std::filesystem::path& path) const {
  static obs::Histogram& save_us =
      obs::Registry::global().histogram("stream.checkpoint_save_us");
  obs::Span span("stream.checkpoint_save", events_applied_, &save_us);
  snapfmt::write_section_file(path, checkpoint_sections());
}

void StreamEngine::restore_checkpoint(const std::filesystem::path& path) {
  // Only a restore that succeeds is timed: a refused file unwinds the span.
  static obs::Histogram& restore_us =
      obs::Registry::global().histogram("stream.checkpoint_restore_us");
  obs::Span span("stream.checkpoint_restore", 0, &restore_us);

  const snapfmt::MmapSectionFile file(path);
  file.verify_all();
  const std::string& ctx = file.context();
  const Meta m = read_meta(file);

  // Refuse anything that is not this exact stream + engine configuration.
  if (m.live != live())
    throw std::runtime_error(ctx + "checkpoint engine mode mismatch");
  if (m.fingerprint != fingerprint_)
    throw std::runtime_error(ctx + "checkpoint stream fingerprint mismatch");
  if (!m.live &&
      (m.story_count != progress_.size() || m.total_events != total_events()))
    throw std::runtime_error(ctx + "checkpoint stream shape mismatch");
  // A live restore rebuilds the whole story table; requiring a fresh engine
  // keeps the commit step below all-or-nothing simple (the serve layer
  // restores into a just-constructed engine anyway).
  if (m.live && story_count() != 0)
    throw std::runtime_error(ctx +
                             "live checkpoint restore needs a fresh engine");
  if (m.events_applied > m.total_events)
    throw std::runtime_error(ctx + "checkpoint events-applied out of range");
  if (m.interesting_threshold != params_.interesting_threshold ||
      m.predictor_armed != (params_.predictor != nullptr) ||
      m.bayes_enabled != params_.bayes.enabled)
    throw std::runtime_error(ctx + "checkpoint engine config mismatch");

  const std::size_t story_count =
      m.live ? static_cast<std::size_t>(m.story_count) : progress_.size();
  const auto& cc = StreamParams::cascade_checkpoints;
  const auto& ic = StreamParams::influence_checkpoints;
  snapfmt::ByteReader r = file.open(snapfmt::kStreamState);
  std::vector<std::uint64_t> applied = r.column<std::uint64_t>(story_count);
  std::vector<std::uint32_t> innetwork = r.column<std::uint32_t>(story_count);
  std::vector<std::uint8_t> flags = r.column<std::uint8_t>(story_count);
  std::vector<double> promoted = r.column<double>(story_count);
  std::vector<std::uint32_t> cascade_rec =
      r.column<std::uint32_t>(story_count * cc.size());
  std::vector<std::uint32_t> influence_rec =
      r.column<std::uint32_t>(story_count * ic.size());
  std::vector<std::uint32_t> influence = r.column<std::uint32_t>(story_count);
  std::vector<float> bayes_estimates;
  if (m.bayes_enabled) bayes_estimates = r.column<float>(story_count);
  std::vector<std::uint32_t> live_ids, live_submitters, live_prefix_len;
  std::vector<double> live_last_time, live_times_flat;
  std::vector<std::uint32_t> live_voters_flat;
  if (m.live) {
    snapfmt::ByteReader lr = file.open(snapfmt::kServeStories);
    live_ids = lr.column<std::uint32_t>(story_count);
    live_submitters = lr.column<std::uint32_t>(story_count);
    live_prefix_len = lr.column<std::uint32_t>(story_count);
    std::uint64_t total_prefix = 0;
    for (const std::uint32_t n : live_prefix_len) {
      if (n > horizon())
        throw std::runtime_error(ctx +
                                 "checkpoint live prefix exceeds horizon");
      total_prefix += n;
    }
    lr.align8();
    live_last_time = lr.column<double>(story_count);
    live_voters_flat = lr.column<std::uint32_t>(total_prefix);
    lr.align8();
    live_times_flat = lr.column<double>(total_prefix);
  }

  // Per-story consistency: the applied column must describe exactly the
  // first events-applied events of the stream, and every derived field must
  // agree with that prefix. This catches checkpoints that passed the
  // container checksum but describe an impossible engine state. Both modes
  // need the per-story counts to sum to the global counter; replay mode
  // also needs them to cut the stream's global order in one place. Live
  // mode has no stream to order, so it relies on the prefix-shape checks
  // below instead.
  std::uint64_t sum = 0;
  for (const std::uint64_t a : applied) {
    if (a > m.events_applied - sum)
      throw std::runtime_error(ctx +
                               "checkpoint progress is not a stream prefix");
    sum += a;
  }
  if (sum != m.events_applied ||
      (!m.live && !is_stream_prefix(*stream_, applied)))
    throw std::runtime_error(ctx +
                             "checkpoint progress is not a stream prefix");
  for (std::size_t slot = 0; slot < story_count; ++slot) {
    if (m.live) {
      if (live_submitters[slot] >= network_->node_count())
        throw std::runtime_error(ctx +
                                 "checkpoint live submitter out of range");
      const std::uint64_t want_prefix =
          std::min<std::uint64_t>(applied[slot], horizon());
      if (live_prefix_len[slot] != want_prefix)
        throw std::runtime_error(ctx +
                                 "checkpoint live prefix length mismatch");
      if (applied[slot] == 0)
        throw std::runtime_error(ctx + "checkpoint live story has no votes");
    }
    if (innetwork[slot] > applied[slot])
      throw std::runtime_error(ctx + "checkpoint in-network count impossible");
    if (influence[slot] > network_->node_count() ||
        (applied[slot] == 0 && influence[slot] != 0))
      throw std::runtime_error(ctx + "checkpoint influence out of range");
    if ((flags[slot] & ~(kHasPrediction | kPredictedYes | kPromoted |
                         kHasBayes | kBayesYes)) != 0)
      throw std::runtime_error(ctx + "checkpoint story flags invalid");
    const bool should_promote = applied[slot] >= kPromotionVotes;
    if (((flags[slot] & kPromoted) != 0) != should_promote)
      throw std::runtime_error(ctx +
                               "checkpoint promotion flag inconsistent");
    const bool should_predict = m.predictor_armed && applied[slot] > kPredictAt;
    if (((flags[slot] & kHasPrediction) != 0) != should_predict)
      throw std::runtime_error(ctx +
                               "checkpoint prediction flag inconsistent");
    const bool should_bayes = m.bayes_enabled && applied[slot] > kPredictAt;
    if (((flags[slot] & kHasBayes) != 0) != should_bayes)
      throw std::runtime_error(ctx + "checkpoint bayes flag inconsistent");
    for (std::size_t j = 0; j < cc.size(); ++j) {
      const bool reached = applied[slot] > cc[j];
      const bool recorded = cascade_rec[slot * cc.size() + j] != kUnrecorded;
      if (reached != recorded)
        throw std::runtime_error(
            ctx + "checkpoint cascade records inconsistent with progress");
    }
    for (std::size_t j = 0; j < ic.size(); ++j) {
      const bool reached = applied[slot] >= ic[j];
      const bool recorded = influence_rec[slot * ic.size() + j] != kUnrecorded;
      if (reached != recorded)
        throw std::runtime_error(
            ctx + "checkpoint influence records inconsistent with progress");
    }
  }

  // Live prefix columns: the bounded prefixes must be states live_vote can
  // reach — voters in graph range and distinct, times finite and
  // non-decreasing, vote 0 the submitter's own digg, and the per-story
  // watermark finite and at or past the buffered tail. The in-network
  // probes, influence recounts and Bayes gaps read exactly these columns.
  std::vector<LiveStory> live_stories(m.live ? story_count : 0);
  if (m.live) {
    std::size_t off = 0;
    std::vector<platform::UserId> sorted;
    for (std::size_t slot = 0; slot < story_count; ++slot) {
      const std::uint32_t n = live_prefix_len[slot];
      for (std::uint32_t i = 0; i < n; ++i) {
        if (live_voters_flat[off + i] >= network_->node_count())
          throw std::runtime_error(ctx + "checkpoint live voter out of range");
        if (!std::isfinite(live_times_flat[off + i]))
          throw std::runtime_error(ctx +
                                   "checkpoint live prefix time not finite");
        if (i > 0 && live_times_flat[off + i] < live_times_flat[off + i - 1])
          throw std::runtime_error(ctx +
                                   "checkpoint live prefix times unsorted");
      }
      if (!std::isfinite(live_last_time[slot]))
        throw std::runtime_error(ctx +
                                 "checkpoint live time watermark not finite");
      if (n > 0) {
        if (live_voters_flat[off] != live_submitters[slot])
          throw std::runtime_error(
              ctx + "checkpoint live vote 0 is not the submitter");
        if (live_last_time[slot] < live_times_flat[off + n - 1])
          throw std::runtime_error(
              ctx + "checkpoint live time watermark behind prefix");
      }
      LiveStory& ls = live_stories[slot];
      ls.id = live_ids[slot];
      ls.submitter = live_submitters[slot];
      ls.last_time = live_last_time[slot];
      ls.prefix_voters.assign(live_voters_flat.begin() + off,
                              live_voters_flat.begin() + off + n);
      ls.prefix_times.assign(live_times_flat.begin() + off,
                             live_times_flat.begin() + off + n);
      off += n;
      sorted = ls.prefix_voters;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        throw std::runtime_error(ctx +
                                 "checkpoint live prefix repeats a voter");
    }
  }

  // Commit. Replay cursors need no recompute because the per-story progress
  // IS the exact prefix the next cut extends. Live mode takes
  // the story table built above (the engine was verified fresh).
  if (m.live) {
    progress_.resize(story_count);
    // fans1 is derivable, so it is re-derived, not trusted from disk.
    for (std::size_t slot = 0; slot < story_count; ++slot)
      progress_[slot].fans1 = static_cast<std::uint32_t>(
          network_->fan_count(live_stories[slot].submitter));
    live_stories_ = std::move(live_stories);
  }
  for (std::size_t slot = 0; slot < story_count; ++slot) {
    progress_[slot].applied = applied[slot];
    progress_[slot].innetwork = innetwork[slot];
    progress_[slot].flags = flags[slot];
    progress_[slot].promoted_time = promoted[slot];
    progress_[slot].influence = influence[slot];
    progress_[slot].bayes_estimate =
        m.bayes_enabled ? bayes_estimates[slot] : 0.0f;
  }
  cascade_rec_ = std::move(cascade_rec);
  influence_rec_ = std::move(influence_rec);
  events_applied_ = m.events_applied;

  obs::record_event(obs::EventKind::kCheckpointRestore, 0, events_applied_);
}

}  // namespace digg::stream

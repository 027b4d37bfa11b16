#include "src/data/vote_store.h"

#include <algorithm>
#include <stdexcept>

namespace digg::data {

std::uint32_t VoteStore::append(std::span<const platform::UserId> voters,
                                std::span<const platform::Minutes> times) {
  if (borrowed_)
    throw std::logic_error("VoteStore::append: store is borrowed (read-only)");
  if (voters.size() != times.size())
    throw std::invalid_argument("VoteStore::append: column length mismatch");
  const auto slot = static_cast<std::uint32_t>(offsets_.size() - 1);
  users_.insert(users_.end(), voters.begin(), voters.end());
  times_.insert(times_.end(), times.begin(), times.end());
  offsets_.push_back(users_.size());
  offsets_view_ = offsets_;  // push_back may have relocated the vector
  return slot;
}

std::size_t VoteStore::size_bytes() const noexcept {
  if (borrowed_) {
    std::size_t bytes = offsets_view_.size() * sizeof(std::uint64_t);
    for (const VoteChunkView& c : chunks_)
      bytes += c.users.size() * sizeof(platform::UserId) +
               c.times.size() * sizeof(platform::Minutes);
    return bytes;
  }
  return offsets_.capacity() * sizeof(std::uint64_t) +
         users_.capacity() * sizeof(platform::UserId) +
         times_.capacity() * sizeof(platform::Minutes);
}

const VoteChunkView& VoteStore::chunk_of(std::uint32_t slot) const {
  // Last chunk whose first_story <= slot. Chunks tile the story range, so
  // the partition point is always preceded by the owning chunk.
  const auto it = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [slot](const VoteChunkView& c) { return c.first_story <= slot; });
  return *(it - 1);
}

VoteStore VoteStore::from_views(std::span<const std::uint64_t> offsets,
                                std::vector<VoteChunkView> chunks) {
  if (offsets.empty() || offsets.front() != 0)
    throw std::invalid_argument("VoteStore::from_views: bad offset table");
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i])
      throw std::invalid_argument(
          "VoteStore::from_views: offsets not monotone");
  }
  // The chunks must tile [0, story_count) in order, each starting at the
  // vote offset of its first story and sized to its stories' total votes.
  const std::size_t story_count = offsets.size() - 1;
  std::size_t next_story = 0;
  std::uint64_t next_vote = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const VoteChunkView& chunk = chunks[c];
    if (chunk.first_story != next_story || chunk.first_vote != next_vote)
      throw std::invalid_argument(
          "VoteStore::from_views: chunks do not tile the story range");
    const std::size_t end_story = c + 1 < chunks.size()
                                      ? chunks[c + 1].first_story
                                      : story_count;
    if (end_story > story_count)
      throw std::invalid_argument(
          "VoteStore::from_views: chunk beyond story range");
    const std::uint64_t votes = offsets[end_story] - chunk.first_vote;
    if (chunk.users.size() != votes || chunk.times.size() != votes)
      throw std::invalid_argument(
          "VoteStore::from_views: chunk size mismatch");
    next_story = end_story;
    next_vote = offsets[end_story];
  }
  if (next_story != story_count || next_vote != offsets.back())
    throw std::invalid_argument(
        "VoteStore::from_views: chunks do not cover all stories");

  VoteStore store;
  store.borrowed_ = true;
  store.offsets_view_ = offsets;
  store.chunks_ = std::move(chunks);
  return store;
}

}  // namespace digg::data

#pragma once
// Story bookkeeping helpers on top of the columnar `Story` record: vote
// insertion with invariant checks, voter-set queries, and the early-vote
// slices the analysis layer consumes ("first N votes not counting the
// submitter", per Fig. 4 and §5.2). Read-only queries take StoryView so
// they run unchanged on platform stories and corpus-resident stories.

#include <span>

#include "src/digg/types.h"

namespace digg::platform {

/// Appends a vote, enforcing chronological order, no duplicate voters, and
/// that the first vote belongs to the submitter. Throws on violations.
/// O(votes) per call, for stories built by hand (tests, examples); the
/// simulators vote through Site::vote, which checks against its visibility
/// bitmap instead.
void add_vote(Story& story, UserId user, Minutes time);

/// True if `user` has already voted on `story`. O(votes) span scan, off
/// the simulators' vote path (VisibilitySet::has_voted is the O(1) probe).
[[nodiscard]] bool has_voted(const StoryView& story, UserId user);

/// All voters, in vote order (submitter first). Zero-copy column view.
[[nodiscard]] std::span<const UserId> voters(const StoryView& story);

/// Creates a story with the submitter's initial digg recorded.
[[nodiscard]] Story make_story(StoryId id, UserId submitter,
                               Minutes submitted_at, double quality);

}  // namespace digg::platform

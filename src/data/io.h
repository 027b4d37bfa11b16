#pragma once
// CSV serialization of a Corpus. The on-disk layout is four files under a
// directory prefix, designed so a real Digg scrape can be converted into it
// with a few lines of scripting:
//   network.csv    fan,target            (fan watches target)
//   stories.csv    id,section,submitter,submitted_at,promoted_at,quality
//                  (section: front_page|upcoming; promoted_at empty if none)
//   votes.csv      story_id,user,time    (chronological per story,
//                                         submitter's digg first)
//   top_users.csv  user                  (rank order)

#include <filesystem>
#include <string>

#include "src/data/corpus.h"

namespace digg::data {

/// Writes the four CSV files into `dir`, creating it if needed. Throws
/// std::runtime_error on I/O failure.
void save_corpus(const Corpus& corpus, const std::filesystem::path& dir);

/// Loads a corpus previously written by save_corpus (or converted real
/// data). Validates the result (see corpus.h) before returning; a validation
/// error is prefixed with "<dir>: ". Throws std::runtime_error on I/O or
/// format errors.
[[nodiscard]] Corpus load_corpus(const std::filesystem::path& dir);

}  // namespace digg::data

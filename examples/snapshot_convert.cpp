// CSV -> binary snapshot converter: one-time conversion of a scraped (or
// synthetic) CSV corpus into the single-file snapshot format, after which
// analyses load the snapshot instead of re-parsing millions of CSV rows.
//
// Usage: snapshot_convert <csv_dir> <snapshot_file>
//        snapshot_convert --demo       (synthetic corpus, temp files)
//
// The conversion validates on load, verifies the written snapshot by
// loading it back (the snapshot loader validates too), and reports the
// size and wall-clock of both paths. Input that does not load (a missing
// directory, a malformed row, a non-finite time) is refused:
// `error: <reason>` on stderr, exit status 1.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>

#include "src/data/io.h"
#include "src/data/snapshot.h"
#include "src/data/synthetic.h"
#include "src/obs/log.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int convert(int argc, char** argv) {
  using namespace digg;
  namespace fs = std::filesystem;

  fs::path csv_dir;
  fs::path snap_path;
  bool demo = false;
  if (argc == 2 && std::strcmp(argv[1], "--demo") == 0) {
    demo = true;
    csv_dir = fs::temp_directory_path() / "digg_snapshot_convert_demo";
    snap_path = csv_dir / "corpus.snap";
    std::printf("demo mode: generating a synthetic corpus under %s\n",
                csv_dir.c_str());
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.user_count = 20000;
    params.story_count = 400;
    const data::SyntheticCorpus syn = data::generate_corpus(params, rng);
    data::save_corpus(syn.corpus, csv_dir);
  } else if (argc == 3) {
    csv_dir = argv[1];
    snap_path = argv[2];
  } else {
    std::fprintf(stderr,
                 "usage: %s <csv_dir> <snapshot_file>\n"
                 "       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }

  auto t0 = std::chrono::steady_clock::now();
  const data::Corpus corpus = data::load_corpus(csv_dir);
  const double csv_ms = ms_since(t0);
  std::printf("loaded CSV corpus: %zu users, %zu stories, %zu votes (%.1f ms)\n",
              corpus.user_count(), corpus.story_count(),
              corpus.vote_store.total_votes(), csv_ms);

  t0 = std::chrono::steady_clock::now();
  data::save_snapshot(corpus, snap_path);
  const double save_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  const data::Corpus reloaded = data::load_snapshot_mmap(snap_path);
  const double load_ms = ms_since(t0);
  if (reloaded.story_count() != corpus.story_count() ||
      reloaded.vote_store.total_votes() != corpus.vote_store.total_votes()) {
    std::fprintf(stderr, "snapshot verification failed: story/vote mismatch\n");
    return 1;
  }

  std::uintmax_t csv_bytes = 0;
  for (const char* name :
       {"network.csv", "stories.csv", "votes.csv", "top_users.csv"})
    csv_bytes += fs::file_size(csv_dir / name);
  const std::uintmax_t snap_bytes = fs::file_size(snap_path);

  std::printf(
      "wrote %s: %.1f MiB (CSV pair: %.1f MiB)\n"
      "  snapshot save: %8.1f ms\n"
      "  snapshot load: %8.1f ms  (verified against the CSV corpus)\n"
      "  CSV load:      %8.1f ms  (%.1fx slower than snapshot load)\n",
      snap_path.c_str(), static_cast<double>(snap_bytes) / (1024.0 * 1024.0),
      static_cast<double>(csv_bytes) / (1024.0 * 1024.0), save_ms, load_ms,
      csv_ms, csv_ms / load_ms);

  if (demo) fs::remove_all(csv_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return convert(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

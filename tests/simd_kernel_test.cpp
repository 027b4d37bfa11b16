// Differential test for the AVX2 bitmap pair (src/simd/dispatch.h): the AVX2
// bitmap_missing_u32 and bitmap_set_u32 must compute exactly what the scalar
// references do on randomized inputs, including ragged sub-vector tails and
// word-boundary ids. Skipped on a host without AVX2, where only the scalar
// references ever run.

#include "src/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "src/stats/rng.h"

namespace digg::simd {
namespace {

std::vector<std::uint32_t> sorted_unique(stats::Rng& rng, std::size_t len,
                                         std::uint32_t lo, std::uint32_t hi) {
  std::set<std::uint32_t> s;
  while (s.size() < len && s.size() <= static_cast<std::size_t>(hi - lo))
    s.insert(static_cast<std::uint32_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi))));
  return {s.begin(), s.end()};
}

TEST(SimdBitmap, MissingAndSetMatchScalarAcrossLevels) {
  if (active_level() != Level::kAvx2)
    GTEST_SKIP() << "host has no AVX2; only the scalar references run";
  stats::Rng rng(773);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t universe =
        static_cast<std::uint32_t>(rng.uniform_int(64, 8192));
    const std::size_t n_words = (universe + 63) / 64;
    std::vector<std::uint64_t> words(n_words);
    for (std::uint64_t& w : words)
      w = static_cast<std::uint64_t>(rng.uniform_int(
              0, std::numeric_limits<std::int64_t>::max())) ^
          (static_cast<std::uint64_t>(
               rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()))
           << 1);
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<std::uint32_t> ids =
        sorted_unique(rng, len, 0, universe - 1);
    // Force word-boundary ids into some trials: bit 0, a 63/64 straddle,
    // and the last representable id.
    if (trial % 4 == 0 && universe > 130) {
      ids.insert(ids.end(), {0u, 63u, 64u, universe - 1});
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }

    std::vector<std::uint32_t> ref_missing(ids.size() + kPackSlack);
    const std::size_t ref_n = detail::scalar_bitmap_missing_u32(
        words.data(), ids.data(), ids.size(), ref_missing.data());
    std::vector<std::uint64_t> ref_words = words;
    const std::size_t ref_newly = detail::scalar_bitmap_set_u32(
        ref_words.data(), ids.data(), ids.size());

    std::vector<std::uint32_t> missing(ids.size() + kPackSlack, 0xDEADu);
    const std::size_t n = detail::avx2_bitmap_missing_u32(
        words.data(), ids.data(), ids.size(), missing.data());
    ASSERT_EQ(n, ref_n) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(missing[i], ref_missing[i]) << "trial " << trial;

    std::vector<std::uint64_t> avx2_words = words;
    const std::size_t newly = detail::avx2_bitmap_set_u32(
        avx2_words.data(), ids.data(), ids.size());
    ASSERT_EQ(newly, ref_newly) << "trial " << trial;
    ASSERT_EQ(avx2_words, ref_words) << "trial " << trial;
  }
}

}  // namespace
}  // namespace digg::simd

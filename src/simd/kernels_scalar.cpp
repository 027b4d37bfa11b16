// Scalar reference kernels — the semantics every vectorized table is
// property-tested against (tests/simd_kernel_test.cpp), and the fallback
// the AVX2 TU calls for ragged tails and skewed size regimes. Keep
// these boring and obviously correct: they define the contract.

#include <cmath>

#include "src/simd/kernels.h"

namespace digg::simd::detail {

std::size_t scalar_set_diff_u32(const std::uint32_t* span, std::size_t span_n,
                                const std::uint32_t* main, std::size_t main_n,
                                std::uint32_t* out, std::uint32_t* out_pos) {
  // Gallop with an advancing hint: both arrays are strictly increasing, so
  // each probe starts where the last one left off — O(log gap) per element,
  // the hybrid_set gallop-intersect restated over raw pointers. The gallop
  // lands on each key's lower bound, which is exactly the insertion point
  // the contract owes out_pos.
  std::size_t pos = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < span_n; ++i) {
    if (!gallop_contains_ptr(main, main_n, span[i], pos)) {
      out[k] = span[i];
      out_pos[k] = static_cast<std::uint32_t>(pos);
      ++k;
    }
  }
  return k;
}

std::size_t scalar_bitmap_missing_u32(const std::uint64_t* words,
                                      const std::uint32_t* ids, std::size_t n,
                                      std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ids[i];
    if (((words[id >> 6] >> (id & 63)) & 1u) == 0) out[k++] = id;
  }
  return k;
}

std::size_t scalar_bitmap_set_u32(std::uint64_t* words,
                                  const std::uint32_t* ids, std::size_t n) {
  // ids are strictly increasing, so ids sharing a word are adjacent: merge
  // each run into one mask and pay a single read-modify-write plus one
  // popcount per touched word — the word-at-a-time union+count commit.
  std::size_t newly = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t w = ids[i] >> 6;
    std::uint64_t mask = 0;
    do {
      mask |= 1ull << (ids[i] & 63);
      ++i;
    } while (i < n && (ids[i] >> 6) == w);
    const std::uint64_t old = words[w];
    words[w] = old | mask;
    newly += static_cast<std::size_t>(__builtin_popcountll(mask & ~old));
  }
  return newly;
}

void scalar_c45_leaves(const FlatTreeView& tree, const double* rows,
                       std::size_t n_rows, std::size_t stride,
                       std::int32_t* out_leaf) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * stride;
    std::int32_t cur = 0;
    // Exactly depth steps: leaves self-loop, so early arrivals idle in
    // place and every lane of a future vector batch stays in lockstep.
    for (std::size_t d = 0; d < tree.depth; ++d) {
      const double v = row[tree.attr[cur]];
      cur = std::isnan(v) ? tree.miss[cur]
                          : (v <= tree.thresh[cur] ? tree.left[cur]
                                                   : tree.right[cur]);
    }
    out_leaf[r] = cur;
  }
}

}  // namespace digg::simd::detail

namespace digg::simd {

const KernelTable kScalarTable = {
    "scalar",
    &detail::scalar_set_diff_u32,
    &detail::scalar_bitmap_missing_u32,
    &detail::scalar_bitmap_set_u32,
    &detail::scalar_c45_leaves,
};

}  // namespace digg::simd

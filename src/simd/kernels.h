#pragma once
// The SIMD kernel surface: one function-pointer table per ISA level, all
// implementing the same exact-set/exact-tree contracts so the dispatcher
// (dispatch.h) can swap tables without changing any observable output.
//
// Contracts (property-tested against the scalar table in
// tests/simd_kernel_test.cpp):
//
//   set_diff_u32(span, span_n, main, main_n, out, out_pos)
//     span and main are strictly-increasing uint32 arrays. Writes the
//     elements of span NOT present in main to out, in span order, and
//     returns the count; out_pos[i] receives the lower-bound index of
//     out[i] in main (its insertion point). This is the candidate pass of
//     HybridSet's array-mode union_span: because the caller's accept/on_new
//     callbacks may not touch the set, membership can be resolved for the
//     whole span up front without reordering anything the callbacks can
//     observe — and because every kernel walks main to each key's lower
//     bound anyway, the insertion points come out for free, which is what
//     lets the caller's staged merge slide blocks with no binary searches.
//
//   bitmap_missing_u32(words, ids, n, out)
//     ids is strictly increasing; words is a word-packed bitmap covering
//     every id. Writes the ids whose bit is CLEAR to out, in id order, and
//     returns the count — the bitmap-mode candidate pass.
//
//   bitmap_set_u32(words, ids, n)
//     Sets the bit for every id (ids strictly increasing) and returns how
//     many bits were newly set — the union+count commit. Implementations
//     merge the ids of one 64-bit word into a single mask and pay one
//     read-modify-write plus one popcount per touched word.
//
//   c45_leaves(tree, rows, n_rows, stride, out_leaf)
//     Branch-free batched decision-tree descent over a flattened
//     numeric-split tree (FlatTreeView). For every row (stride doubles),
//     walks exactly tree.depth steps — leaves self-loop (left == right ==
//     self, thresh == +inf), so early arrivals idle in place — and writes
//     the leaf index. Missing values (NaN) route to miss[node], matching
//     DecisionTree::walk's majority-child rule; the comparison is
//     v <= thresh with NaN compares false, and orderedness (v == v)
//     selects between the compare result and miss.
//
// Output-buffer slack: the packing kernels store one full vector per
// block and then advance by the survivor count, so `out` must have room
// for span_n/n plus kPackSlack extra lanes. Callers (HybridSet) size
// their scratch accordingly.

#include <cstddef>
#include <cstdint>

namespace digg::simd {

/// Extra writable lanes required past the logical end of every `out`
/// buffer passed to the packing kernels (one 8-lane vector of overstore).
inline constexpr std::size_t kPackSlack = 8;

/// Flattened numeric-split decision tree (built by ml::FlatTree). Leaves
/// self-loop with thresh == +infinity so a fixed-depth descent is exact.
struct FlatTreeView {
  const std::int32_t* attr = nullptr;    // split attribute (leaf: 0)
  const double* thresh = nullptr;        // v <= thresh goes left (leaf: +inf)
  const std::int32_t* left = nullptr;    // child indices (leaf: self)
  const std::int32_t* right = nullptr;
  const std::int32_t* miss = nullptr;    // NaN routing (leaf: self)
  std::size_t node_count = 0;
  std::size_t depth = 0;                 // descent steps to reach any leaf
};

struct KernelTable {
  const char* name = "scalar";
  std::size_t (*set_diff_u32)(const std::uint32_t* span, std::size_t span_n,
                              const std::uint32_t* main, std::size_t main_n,
                              std::uint32_t* out,
                              std::uint32_t* out_pos) = nullptr;
  std::size_t (*bitmap_missing_u32)(const std::uint64_t* words,
                                    const std::uint32_t* ids, std::size_t n,
                                    std::uint32_t* out) = nullptr;
  std::size_t (*bitmap_set_u32)(std::uint64_t* words, const std::uint32_t* ids,
                                std::size_t n) = nullptr;
  void (*c45_leaves)(const FlatTreeView& tree, const double* rows,
                     std::size_t n_rows, std::size_t stride,
                     std::int32_t* out_leaf) = nullptr;
};

namespace detail {

// The scalar reference implementations, shared across TUs: the scalar
// table is made of exactly these, and the AVX2 kernels call them for
// ragged tails and for the size regimes where vectorization loses
// (see kernels_avx2.cpp's skew heuristic).
std::size_t scalar_set_diff_u32(const std::uint32_t* span, std::size_t span_n,
                                const std::uint32_t* main, std::size_t main_n,
                                std::uint32_t* out, std::uint32_t* out_pos);
std::size_t scalar_bitmap_missing_u32(const std::uint64_t* words,
                                      const std::uint32_t* ids, std::size_t n,
                                      std::uint32_t* out);
std::size_t scalar_bitmap_set_u32(std::uint64_t* words,
                                  const std::uint32_t* ids, std::size_t n);
void scalar_c45_leaves(const FlatTreeView& tree, const double* rows,
                       std::size_t n_rows, std::size_t stride,
                       std::int32_t* out_leaf);

/// Pointer-based galloping membership probe (the hybrid_set.h gallop,
/// restated over raw arrays so the kernel layer stays header-independent
/// of src/digg). `pos` advances to key's lower bound.
inline bool gallop_contains_ptr(const std::uint32_t* sorted, std::size_t n,
                                std::uint32_t key, std::size_t& pos) noexcept {
  if (pos >= n || sorted[pos] >= key) {
    // Already at or past the bracket; fall through to the final check.
  } else {
    std::size_t step = 1;
    std::size_t lo = pos;
    while (lo + step < n && sorted[lo + step] < key) {
      lo += step;
      step <<= 1;
    }
    std::size_t hi = lo + step < n ? lo + step : n;
    ++lo;  // sorted[lo - 1] < key already established
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (sorted[mid] < key)
        lo = mid + 1;
      else
        hi = mid;
    }
    pos = lo;
  }
  return pos < n && sorted[pos] == key;
}

}  // namespace detail

// Per-TU tables. kAvx2Table falls back to the scalar entries when its TU
// was compiled without AVX2 (non-x86 targets); kAvx2Compiled tells the
// dispatcher whether the table is real.
extern const KernelTable kScalarTable;
extern const KernelTable kAvx2Table;
extern const bool kAvx2Compiled;

}  // namespace digg::simd

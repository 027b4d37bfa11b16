// The AVX2 bitmap pair. This TU alone is compiled with -mavx2 -mpopcnt (see
// CMakeLists.txt), and its functions are reached only through dispatch.cpp's
// CPU check, so nothing here may be inlined into generically-compiled code.
// On non-x86 targets they forward to the scalar references.
//
//   bitmap_missing  8 ids per step: VPSRLD for word indices, two 4-lane
//                   VPGATHERQQ loads, VPSRLVQ bit tests, survivors
//                   left-packed through a 256-entry VPERMD table.
//   bitmap_set      The scalar word-run merge (one RMW + POPCNT per touched
//                   word): the ids->bits scatter has no AVX2 formulation
//                   that beats it, but compiled here the popcount is the
//                   POPCNT instruction.

#include "src/simd/dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

namespace digg::simd::detail {
namespace {

// 256-entry left-pack table: row m holds the lane indices whose bit is set
// in m, in ascending order (padding repeats lane 0, which is never stored
// past the survivor count).
struct PackTable {
  alignas(32) std::uint32_t idx[256][8];
};

constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int b = 0; b < 8; ++b)
      if ((m >> b) & 1) t.idx[m][k++] = static_cast<std::uint32_t>(b);
    for (; k < 8; ++k) t.idx[m][k] = 0;
  }
  return t;
}

constexpr PackTable kPack = make_pack_table();

/// Left-packs the lanes of `v` selected by `mask` (bit per lane) to out,
/// returning the survivor count. Stores a full vector: out needs
/// kPackSlack lanes of slack past the logical end.
inline std::size_t pack_store(__m256i v, int mask, std::uint32_t* out) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPack.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(v, perm));
  return static_cast<std::size_t>(__builtin_popcount(
      static_cast<unsigned>(mask)));
}

}  // namespace

std::size_t avx2_bitmap_missing_u32(const std::uint64_t* words,
                                    const std::uint32_t* ids, std::size_t n,
                                    std::uint32_t* out) {
  std::size_t k = 0;
  std::size_t i = 0;
  const __m256i c63 = _mm256_set1_epi32(63);
  for (; i + 8 <= n; i += 8) {
    const __m256i id =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i widx = _mm256_srli_epi32(id, 6);
    const __m256i w0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(words),
        _mm256_castsi256_si128(widx), 8);
    const __m256i w1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(words),
        _mm256_extracti128_si256(widx, 1), 8);
    const __m256i sh = _mm256_and_si256(id, c63);
    const __m256i s0 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(sh));
    const __m256i s1 = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(sh, 1));
    // Shift the tested bit to the sign position so MOVMSKPD reads it.
    const __m256i b0 = _mm256_slli_epi64(_mm256_srlv_epi64(w0, s0), 63);
    const __m256i b1 = _mm256_slli_epi64(_mm256_srlv_epi64(w1, s1), 63);
    const int present =
        _mm256_movemask_pd(_mm256_castsi256_pd(b0)) |
        (_mm256_movemask_pd(_mm256_castsi256_pd(b1)) << 4);
    k += pack_store(id, ~present & 0xff, out + k);
  }
  for (; i < n; ++i) {
    const std::uint32_t id = ids[i];
    if (((words[id >> 6] >> (id & 63)) & 1u) == 0) out[k++] = id;
  }
  return k;
}

std::size_t avx2_bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                                std::size_t n) {
  // Same code shape as the scalar reference; only the popcount differs.
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
    newly += static_cast<std::size_t>(_mm_popcnt_u64(mask & ~old));
  }
  return newly;
}

}  // namespace digg::simd::detail

#else  // non-x86 or AVX2 flags missing: forward to the scalar references.

namespace digg::simd::detail {

std::size_t avx2_bitmap_missing_u32(const std::uint64_t* words,
                                    const std::uint32_t* ids, std::size_t n,
                                    std::uint32_t* out) {
  return scalar_bitmap_missing_u32(words, ids, n, out);
}

std::size_t avx2_bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                                std::size_t n) {
  return scalar_bitmap_set_u32(words, ids, n);
}

}  // namespace digg::simd::detail

#endif

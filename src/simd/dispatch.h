#pragma once
// The AVX2 bitmap pair behind one CPU check. HybridSet's bitmap mode
// (src/digg/hybrid_set.h) unions a sorted fan span into a word-packed
// bitmap in two steps, and these are the two:
//
//   bitmap_missing_u32(words, ids, n, out)
//     ids is strictly increasing; words is a word-packed bitmap covering
//     every id. Writes the ids whose bit is CLEAR to out, in id order, and
//     returns the count — the union's candidate pass. The AVX2 version
//     gathers 8 ids' words per step and left-packs the survivors with a
//     full-vector store, so `out` must have room for n + kPackSlack lanes.
//
//   bitmap_set_u32(words, ids, n)
//     Sets the bit for every id (ids strictly increasing) and returns how
//     many bits were newly set — the union+count commit. The ids of one
//     64-bit word merge into a single mask: one read-modify-write plus one
//     popcount per touched word.
//
// Which implementation runs is decided once per process by
// __builtin_cpu_supports("avx2"); active_level() reports the choice. Both
// compute the same function, so the choice never changes an output — the
// differential test (tests/simd_kernel_test.cpp) holds the AVX2 pair to the
// scalar references below. Only bitmap_avx2.cpp is compiled with -mavx2,
// and it is reached only through the check, so no AVX2 instruction runs on
// a host without it.

#include <cstddef>
#include <cstdint>

namespace digg::simd {

/// Extra writable lanes required past the logical end of the `out` buffer
/// passed to bitmap_missing_u32 (one 8-lane vector of overstore).
inline constexpr std::size_t kPackSlack = 8;

enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// kAvx2 when this host runs the AVX2 bitmap pair, otherwise kScalar.
[[nodiscard]] Level active_level();

[[nodiscard]] const char* level_name(Level level);

std::size_t bitmap_missing_u32(const std::uint64_t* words,
                               const std::uint32_t* ids, std::size_t n,
                               std::uint32_t* out);
std::size_t bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                           std::size_t n);

namespace detail {

// The scalar references: the fallback below AVX2 and the semantics the AVX2
// pair is tested against.
std::size_t scalar_bitmap_missing_u32(const std::uint64_t* words,
                                      const std::uint32_t* ids, std::size_t n,
                                      std::uint32_t* out);
std::size_t scalar_bitmap_set_u32(std::uint64_t* words,
                                  const std::uint32_t* ids, std::size_t n);

// The AVX2 pair (bitmap_avx2.cpp). Call only when active_level() is kAvx2;
// on a target without AVX2 they forward to the scalar references.
std::size_t avx2_bitmap_missing_u32(const std::uint64_t* words,
                                    const std::uint32_t* ids, std::size_t n,
                                    std::uint32_t* out);
std::size_t avx2_bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                                std::size_t n);

}  // namespace detail

}  // namespace digg::simd

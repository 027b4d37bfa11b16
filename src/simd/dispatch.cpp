#include "src/simd/dispatch.h"

namespace digg::simd {

namespace {

bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace

Level active_level() {
  return host_has_avx2() ? Level::kAvx2 : Level::kScalar;
}

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

std::size_t bitmap_missing_u32(const std::uint64_t* words,
                               const std::uint32_t* ids, std::size_t n,
                               std::uint32_t* out) {
  if (host_has_avx2())
    return detail::avx2_bitmap_missing_u32(words, ids, n, out);
  return detail::scalar_bitmap_missing_u32(words, ids, n, out);
}

std::size_t bitmap_set_u32(std::uint64_t* words, const std::uint32_t* ids,
                           std::size_t n) {
  if (host_has_avx2()) return detail::avx2_bitmap_set_u32(words, ids, n);
  return detail::scalar_bitmap_set_u32(words, ids, n);
}

namespace detail {

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
  // popcount per touched word.
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

}  // namespace detail

}  // namespace digg::simd

#include "src/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace digg::simd {

namespace {

Level detect_best() {
#if defined(__x86_64__) || defined(__i386__)
  if (kAvx2Compiled && __builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

const KernelTable& table_at(Level level) {
  return level == Level::kAvx2 ? kAvx2Table : kScalarTable;
}

Level clamp_supported(Level level) {
  const Level best = best_supported();
  return static_cast<int>(level) > static_cast<int>(best) ? best : level;
}

/// DIGG_SIMD resolution; called once. Warnings go to stderr because the
/// metrics registry may not exist yet when the first kernel call happens
/// (static-init order), and a mis-set env var is an operator-facing issue.
Level resolve_from_env() {
  const Level best = best_supported();
  const char* env = std::getenv("DIGG_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "native") == 0)
    return best;
  Level want;
  if (std::strcmp(env, "scalar") == 0) {
    want = Level::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    want = Level::kAvx2;
  } else {
    std::fprintf(stderr,
                 "digg: DIGG_SIMD='%s' is not scalar|avx2|native; "
                 "using native (%s)\n",
                 env, level_name(best));
    return best;
  }
  if (static_cast<int>(want) > static_cast<int>(best)) {
    std::fprintf(stderr,
                 "digg: DIGG_SIMD=%s unsupported on this host; "
                 "clamping to %s\n",
                 env, level_name(best));
    return best;
  }
  return want;
}

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<int> g_active_level{0};
std::once_flag g_resolve_once;

void resolve() {
  std::call_once(g_resolve_once, [] {
    const Level level = resolve_from_env();
    g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
    g_active.store(&table_at(level), std::memory_order_release);
  });
}

}  // namespace

Level best_supported() {
  static const Level best = detect_best();
  return best;
}

const KernelTable& kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    resolve();
    t = g_active.load(std::memory_order_acquire);
  }
  return *t;
}

const KernelTable& kernels_for(Level level) {
  return table_at(clamp_supported(level));
}

Level active_level() {
  resolve();
  return static_cast<Level>(g_active_level.load(std::memory_order_relaxed));
}

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

void force_level(Level level) {
  resolve();  // ensure the once-flag is consumed before overriding
  const Level clamped = clamp_supported(level);
  g_active_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
  g_active.store(&table_at(clamped), std::memory_order_release);
}

}  // namespace digg::simd

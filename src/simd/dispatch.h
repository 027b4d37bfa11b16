#pragma once
// Runtime ISA dispatch for the SIMD kernel layer (kernels.h). The active
// table is resolved exactly once, on first use, from two inputs:
//
//   1. what the CPU supports (CPUID via __builtin_cpu_supports):
//      AVX2 when available, otherwise scalar;
//   2. the DIGG_SIMD environment variable, which can only narrow:
//        DIGG_SIMD=scalar   force the scalar reference kernels
//        DIGG_SIMD=avx2     cap at AVX2 (clamped down if unsupported)
//        DIGG_SIMD=native   the default: best supported level
//      An unsupported or unknown value warns on stderr and falls back to
//      native — an env typo must never change results (it can't: every
//      level is bit-identical) or silently pick a level the host lacks.
//
// After resolution, kernels() is a single relaxed atomic load — callers
// in per-vote hot loops pay one indirect call per kernel use and nothing
// else. force_level() exists for the differential property tests, which
// need to pin each level in turn inside one process; production code never
// calls it.

#include "src/simd/kernels.h"

namespace digg::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// The active kernel table (resolved once; see file comment).
[[nodiscard]] const KernelTable& kernels();

/// The table for a specific level, independent of the active selection.
/// Requesting a level above best_supported() returns the highest real
/// table at or below it (tests iterate levels up to best_supported()).
[[nodiscard]] const KernelTable& kernels_for(Level level);

/// The level kernels() currently resolves to.
[[nodiscard]] Level active_level();

/// Highest level this host can execute.
[[nodiscard]] Level best_supported();

[[nodiscard]] const char* level_name(Level level);

/// Test hook: pins kernels() to `level` (clamped to best_supported()).
/// Takes effect immediately for subsequent kernels() calls.
void force_level(Level level);

}  // namespace digg::simd

#pragma once
// One reader for the numeric environment variables (DIGG_THREADS,
// DIGG_RECORDER_EVENTS, DIGG_WATCHDOG_MS, DIGG_METRICS_PORT,
// DIGG_SERVE_PORT, DIGG_CHECKPOINT_MS): a value that is not a plain
// decimal integer in range never reaches the caller as something else.

#include <cstdint>

namespace digg::obs {

/// The value of env var `name` when it is a decimal integer in [lo, hi].
/// Unset returns `fallback` silently; empty, junk ("12ms", "abc"),
/// negative or out-of-range values log one warning per variable and return
/// `fallback`, which need not lie in [lo, hi] (callers use that to mean
/// "off"). Reads the environment on every call.
[[nodiscard]] std::uint64_t env_uint(const char* name, std::uint64_t lo,
                                     std::uint64_t hi, std::uint64_t fallback);

}  // namespace digg::obs

#pragma once
// One reader for the numeric environment variables (DIGG_THREADS,
// DIGG_RECORDER_EVENTS, DIGG_WATCHDOG_MS, DIGG_METRICS_PORT,
// DIGG_SERVE_PORT, DIGG_CHECKPOINT_MS) and one for the string-valued ones
// (DIGG_LOG_LEVEL, DIGG_RECORDER): a value that is not a plain decimal
// integer in range, or not one of the allowed words, never reaches the
// caller as something else.

#include <cstdint>
#include <initializer_list>
#include <string_view>

namespace digg::obs {

/// The value of env var `name` when it is a decimal integer in [lo, hi].
/// Unset returns `fallback` silently; empty, junk ("12ms", "abc"),
/// negative or out-of-range values log one warning per variable and return
/// `fallback`, which need not lie in [lo, hi] (callers use that to mean
/// "off"). Reads the environment on every call.
[[nodiscard]] std::uint64_t env_uint(const char* name, std::uint64_t lo,
                                     std::uint64_t hi, std::uint64_t fallback);

/// The value of env var `name` when it is exactly one of `allowed`. Unset
/// returns `fallback` silently; an empty or unknown value ("warnings",
/// "OFF") logs one warning per variable, naming the allowed values, and
/// returns `fallback`. The result views an element of `allowed` or
/// `fallback`. The warning is logged outside any lock held here, so the
/// logger may call this while resolving its own level. Reads the
/// environment on every call.
[[nodiscard]] std::string_view env_choice(
    const char* name, std::initializer_list<std::string_view> allowed,
    std::string_view fallback);

}  // namespace digg::obs

#pragma once
// Liveness watchdog: long-running work registers a WatchdogTask with a
// deadline and heartbeats it from its inner loop; a background thread scans
// the registered tasks and, when one misses its deadline, increments
// `obs.watchdog_stalls`, logs a warning naming the task, and dumps the
// flight recorder — so a wedged shard or deadlocked pool job leaves
// evidence instead of a silent hang. Opt-in:
//
//   DIGG_WATCHDOG_MS=<interval>   start at first instrument creation,
//                                 scanning every <interval> ms
//
// The stall dump goes to `<DIGG_CRASH_REPORT>.stall` when crash handlers
// are installed, else to stderr, using the same report writer as the crash
// path (recorder.h), with signal=0.
//
// Cost model: with the watchdog not running, beat() is a single relaxed
// load. With it running, beat() adds one clock read and one relaxed store —
// still fine inside per-story loops. A stalled task is reported once per
// stall: the reported flag rearms only after a fresh beat brings the task
// back under its deadline.

#include <cstdint>

namespace digg::obs {

/// RAII heartbeat handle for one unit of long-running work (a pool job, a
/// streaming replay). Registration and deregistration take a mutex;
/// beat() never does. The `name` pointer must outlive the task (string
/// literals are the intended use).
class WatchdogTask {
 public:
  WatchdogTask(const char* name, std::uint64_t deadline_ms);
  ~WatchdogTask();
  WatchdogTask(const WatchdogTask&) = delete;
  WatchdogTask& operator=(const WatchdogTask&) = delete;

  /// Marks the task alive now. Safe from any thread working on the task.
  void beat() noexcept;

  struct Rec;  // opaque; defined by the scanner (watchdog.cpp)

 private:
  Rec* rec_;
};

/// Starts the scanner thread (idempotent). `interval_ms` is clamped to
/// >= 10. Returns true when running.
bool start_watchdog(unsigned interval_ms);
/// Stops and joins the scanner. Safe when not running.
void stop_watchdog();

/// DIGG_WATCHDOG_MS through env_uint (env.h): the interval in ms, or 0
/// (watchdog off) when unset, zero or malformed.
[[nodiscard]] unsigned watchdog_ms_from_env();

/// Starts from DIGG_WATCHDOG_MS when set; called at first instrument
/// creation (metrics.cpp).
void maybe_start_watchdog_from_env();

}  // namespace digg::obs

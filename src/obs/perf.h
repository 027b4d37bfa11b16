#pragma once
// Hardware-counter profiling via perf_event_open(2): cycles, instructions,
// and cache references/misses counted over a code region, read back as
// derived IPC and cache-miss rate. Strictly best-effort — the PMU may
// be absent (containers, VMs without vPMU) or forbidden
// (kernel.perf_event_paranoid); every failure degrades to an invalid
// reading, never an error. Counters are opened with exclude_kernel +
// exclude_hv so they work at perf_event_paranoid <= 2 (the common default)
// without privileges.
//
// Fallback rules (see DESIGN.md "Telemetry v2"):
//   - the cycles leader failing to open invalidates the whole group;
//   - a member (instructions, cache refs/misses) failing to open is dropped
//     individually — IPC may be valid while miss rate is not;
//   - readings where a needed counter is 0 make the derived value 0 rather
//     than dividing by it.
//
// Zero-perturbation contract: counting is observation-only; results are
// bit-identical with counters on, off, or unsupported.

#include <cstdint>

namespace digg::obs {

/// One counter-group reading. `valid` means the group leader (cycles) was
/// counting; member counters that failed to open read 0.
struct PerfReading {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  bool valid = false;

  /// Instructions per cycle; 0 when invalid or cycles == 0.
  [[nodiscard]] double ipc() const noexcept {
    if (!valid || cycles == 0) return 0.0;
    return static_cast<double>(instructions) / static_cast<double>(cycles);
  }
  /// Cache misses as a percentage of references; 0 when unavailable.
  [[nodiscard]] double cache_miss_pct() const noexcept {
    if (!valid || cache_references == 0) return 0.0;
    return 100.0 * static_cast<double>(cache_misses) /
           static_cast<double>(cache_references);
  }
};

/// A perf_event counter group for the calling process (all threads it
/// spawns inherit the count). start()/stop() bracket the measured region;
/// stop() returns the reading and the group can be restarted. All methods
/// degrade to no-ops with an invalid reading when the PMU is unavailable.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  void start() noexcept;
  [[nodiscard]] PerfReading stop() noexcept;
  /// True when the group leader opened (readings can be valid).
  [[nodiscard]] bool usable() const noexcept { return leader_fd_ >= 0; }

 private:
  int leader_fd_ = -1;      // cycles
  int fds_[3] = {-1, -1, -1};  // instructions, cache refs, cache misses
};

}  // namespace digg::obs

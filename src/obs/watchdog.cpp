#include "src/obs/watchdog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/env.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace digg::obs {

struct WatchdogTask::Rec {
  const char* name;
  std::uint64_t deadline_us;
  std::atomic<std::uint64_t> last_beat_us;
  std::atomic<bool> reported{false};
};

namespace {

struct WatchdogState {
  std::mutex mutex;  // guards tasks; beat() never takes it
  std::vector<WatchdogTask::Rec*> tasks;
  std::thread thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
};

// Leaked for the same atexit-ordering reason as the registry: a WatchdogTask
// destructor may run after main()'s statics are gone.
WatchdogState* state() {
  static WatchdogState* s = new WatchdogState();
  return s;
}

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void dump_stall_report() {
  const char* crash_path = crash_report_path();
  if (*crash_path != '\0') {
    const std::string path = std::string(crash_path) + ".stall";
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      write_crash_report(fd, 0);
      ::close(fd);
      return;
    }
  }
  write_crash_report(STDERR_FILENO, 0);
}

void scan_once() {
  WatchdogState* s = state();
  const std::uint64_t now = now_us();
  std::vector<const char*> stalled;
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    for (WatchdogTask::Rec* rec : s->tasks) {
      const std::uint64_t beat =
          rec->last_beat_us.load(std::memory_order_relaxed);
      const std::uint64_t age = now > beat ? now - beat : 0;
      if (age > rec->deadline_us) {
        // Report each stall once; a fresh beat below rearms.
        if (!rec->reported.exchange(true, std::memory_order_relaxed))
          stalled.push_back(rec->name);
      } else {
        rec->reported.store(false, std::memory_order_relaxed);
      }
    }
  }
  if (stalled.empty()) return;
  static Counter& stalls = Registry::global().counter("obs.watchdog_stalls");
  for (const char* name : stalled) {
    stalls.inc();
    log_warn("obs", "watchdog: task missed its heartbeat deadline",
             {{"task", name}});
  }
  dump_stall_report();
}

void watchdog_loop(unsigned interval_ms) {
  WatchdogState* s = state();
  while (!s->stop.load(std::memory_order_acquire)) {
    scan_once();
    // Sleep in short steps so stop_watchdog() joins promptly even with a
    // long scan interval.
    unsigned slept = 0;
    while (slept < interval_ms && !s->stop.load(std::memory_order_acquire)) {
      const unsigned step = std::min(interval_ms - slept, 50u);
      std::this_thread::sleep_for(std::chrono::milliseconds(step));
      slept += step;
    }
  }
}

void stop_watchdog_at_exit() { stop_watchdog(); }

}  // namespace

WatchdogTask::WatchdogTask(const char* name, std::uint64_t deadline_ms)
    : rec_(new Rec{name, deadline_ms * 1000, {now_us()}, {}}) {
  WatchdogState* s = state();
  std::lock_guard<std::mutex> lock(s->mutex);
  s->tasks.push_back(rec_);
}

WatchdogTask::~WatchdogTask() {
  WatchdogState* s = state();
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    std::erase(s->tasks, rec_);
  }
  delete rec_;
}

void WatchdogTask::beat() noexcept {
  // One relaxed load when the watchdog is off — cheap enough for per-story
  // and per-chunk loops to call unconditionally.
  if (!state()->running.load(std::memory_order_relaxed)) return;
  rec_->last_beat_us.store(now_us(), std::memory_order_relaxed);
}

bool start_watchdog(unsigned interval_ms) {
  WatchdogState* s = state();
  if (s->running.load(std::memory_order_acquire)) return true;
  if (interval_ms < 10) interval_ms = 10;
  s->stop.store(false, std::memory_order_release);
  s->thread = std::thread(watchdog_loop, interval_ms);
  s->running.store(true, std::memory_order_release);
  static const bool atexit_registered = [] {
    std::atexit(stop_watchdog_at_exit);
    return true;
  }();
  (void)atexit_registered;
  log_info("obs", "watchdog running",
           {{"interval_ms", std::to_string(interval_ms)}});
  return true;
}

void stop_watchdog() {
  WatchdogState* s = state();
  if (!s->running.load(std::memory_order_acquire)) return;
  s->stop.store(true, std::memory_order_release);
  if (s->thread.joinable()) s->thread.join();
  s->running.store(false, std::memory_order_release);
}

unsigned watchdog_ms_from_env() {
  return static_cast<unsigned>(env_uint(
      "DIGG_WATCHDOG_MS", 1, std::numeric_limits<unsigned>::max(), 0));
}

void maybe_start_watchdog_from_env() {
  static const bool started = [] {
    const unsigned ms = watchdog_ms_from_env();
    return ms > 0 && start_watchdog(ms);
  }();
  (void)started;
}

}  // namespace digg::obs

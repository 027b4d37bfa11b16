#include "src/obs/perf.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

namespace digg::obs {

namespace {

int perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                    unsigned long flags) noexcept {
  return static_cast<int>(
      ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags));
}

int open_counter(std::uint64_t config, int group_fd) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;  // the leader gates the group
  attr.exclude_kernel = 1;  // user-space only: allowed at paranoid <= 2
  attr.exclude_hv = 1;
  attr.inherit = 1;  // count worker threads spawned inside the region
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID;
  // pid=0, cpu=-1: this process, any CPU.
  return perf_event_open(&attr, 0, -1, group_fd, 0);
}

}  // namespace

PerfCounters::PerfCounters() {
  leader_fd_ = open_counter(PERF_COUNT_HW_CPU_CYCLES, -1);
  if (leader_fd_ < 0) return;  // no PMU: the whole group is invalid
  // Members are individually best-effort; a failed one stays -1 and its
  // reading is 0.
  fds_[0] = open_counter(PERF_COUNT_HW_INSTRUCTIONS, leader_fd_);
  fds_[1] = open_counter(PERF_COUNT_HW_CACHE_REFERENCES, leader_fd_);
  fds_[2] = open_counter(PERF_COUNT_HW_CACHE_MISSES, leader_fd_);
}

PerfCounters::~PerfCounters() {
  for (const int fd : fds_)
    if (fd >= 0) ::close(fd);
  if (leader_fd_ >= 0) ::close(leader_fd_);
}

void PerfCounters::start() noexcept {
  if (leader_fd_ < 0) return;
  ::ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

PerfReading PerfCounters::stop() noexcept {
  PerfReading out;
  if (leader_fd_ < 0) return out;
  ::ioctl(leader_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  // PERF_FORMAT_GROUP | PERF_FORMAT_ID layout:
  //   u64 nr; { u64 value; u64 id; } values[nr];
  // in group-open order: cycles, then whichever members opened.
  std::uint64_t buf[1 + 2 * 4] = {};
  const ssize_t n = ::read(leader_fd_, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return out;
  const std::uint64_t nr = buf[0];
  std::uint64_t values[4] = {};  // cycles, instructions, cache refs, misses
  // Opened counter j reads at buf[1 + 2*j]; a member that never opened has
  // no entry, so walk fds_ and advance j only past counters that exist.
  values[0] = buf[1];  // leader (cycles) is always j = 0
  std::uint64_t j = 1;
  for (std::size_t m = 0; m < 3; ++m) {
    if (fds_[m] < 0) continue;  // never opened: value stays 0
    if (j < nr) values[m + 1] = buf[1 + 2 * j];
    ++j;
  }
  out.cycles = values[0];
  out.instructions = values[1];
  out.cache_references = values[2];
  out.cache_misses = values[3];
  out.valid = true;
  return out;
}

}  // namespace digg::obs

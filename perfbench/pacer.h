#pragma once
// Open-loop paced schedule. Slot k is due at start + k * interval and is
// sent when due, whether or not earlier slots have been answered: a slow
// server makes replies late, never sends. Every `sync_every`-th slot also
// carries a sync, and each sync's latency is measured from when its slot
// was DUE, not from when it was actually sent, so a stall is charged to
// every sync it delays. How late the generator itself ran (send time - due
// time) is recorded beside it.
//
// The clock is a template parameter so tests can drive the schedule with a
// fake clock: it needs `std::int64_t now()` in nanoseconds.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct PacedSample {
  double ack_ms = 0.0;   // reply time - due time
  double late_ms = 0.0;  // send time - due time (0 when on schedule)
};

/// True when slot k carries a sync.
[[nodiscard]] inline bool is_sync_slot(std::size_t k, std::size_t sync_every) {
  return k % sync_every == sync_every - 1;
}

/// Runs `slots` slots on one connection.
///   send(k)                  sends slot k (and its sync, if it has one);
///                            false on failure.
///   wait(deadline, on_reply) blocks until `deadline` (ns) or until replies
///                            arrive, calling on_reply(k) for each sync
///                            slot k answered; false on failure.
/// After the last send, replies may take `drain_ns` more before the run
/// fails. Samples land in `out` in reply order, one per sync. Returns false
/// on the first failure or a reply that never came.
template <class Clock, class Send, class Wait>
bool run_paced(Clock& clock, std::int64_t start_ns, std::int64_t interval_ns,
               std::size_t slots, std::size_t sync_every, std::int64_t drain_ns,
               Send&& send, Wait&& wait, std::vector<PacedSample>& out) {
  std::vector<std::int64_t> sent_at(slots, -1);
  std::vector<char> answered(slots, 0);
  std::size_t next = 0, replies = 0;
  const std::size_t syncs = slots / sync_every;
  auto due = [&](std::size_t k) {
    return start_ns + static_cast<std::int64_t>(k) * interval_ns;
  };
  auto on_reply = [&](std::size_t k) {
    if (k >= next || !is_sync_slot(k, sync_every) || answered[k]) return;
    answered[k] = 1;
    ++replies;
    const std::int64_t d = due(k);
    out.push_back({static_cast<double>(clock.now() - d) / 1e6,
                   static_cast<double>(sent_at[k] - d) / 1e6});
  };
  while (replies < syncs) {
    const std::int64_t now = clock.now();
    if (next < slots && now >= due(next)) {
      sent_at[next] = now;
      if (!send(next)) return false;
      ++next;
      continue;
    }
    const std::int64_t deadline =
        next < slots ? due(next) : sent_at[slots - 1] + drain_ns;
    if (next == slots && now >= deadline) return false;  // replies missing
    if (!wait(deadline, on_reply)) return false;
  }
  return true;
}

}  // namespace perfbench

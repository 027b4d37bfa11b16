#pragma once
// Bounded lock-free multi-producer / single-consumer ring queue — the
// hand-off between the serve front-end and the drain coordinator. Serve
// has one producer (the epoll thread) and one ring, so the ring's FIFO
// order is the order events were accepted in; the queue itself does not
// assume a single producer.
//
// The design is the classic bounded-sequence ring (Vyukov): each cell
// carries a sequence counter that encodes, relative to the ring lap, whether
// the cell is free for the producer or full for the consumer. Producers
// claim cells with one CAS on the tail; the consumer advances the head with
// plain stores (single consumer — no CAS needed on the pop side). Both
// sides are wait-free in the common case and never block: a full ring fails
// try_push (the caller's backpressure policy decides what to do), an empty
// ring returns zero from pop_batch.
//
// Memory ordering: the producer's release store to the cell sequence
// publishes the value; the consumer's acquire load of the same sequence
// synchronizes-with it, so the value read happens-after the write (the
// property tests/serve_test.cpp verifies under TSan).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace digg::serve {

template <typename T>
class MpscQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring cells are published by memcpy semantics");

 public:
  /// Capacity is rounded up to a power of two (index masking beats modulo
  /// on the per-event path), and 1 up to 2: in a one-cell ring "published"
  /// and "freed for the next lap" are the same sequence value, so pushes
  /// would overwrite unread values. Throws std::invalid_argument on zero.
  explicit MpscQueue(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("MpscQueue capacity 0");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Multi-producer push; false when the ring is full (never blocks).
  bool try_push(const T& v) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // The cell is free for lap `pos`; claim it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // full: the consumer has not freed this lap's cell
      } else {
        pos = tail_.load(std::memory_order_relaxed);  // lost the race
      }
    }
    Cell& cell = cells_[pos & mask_];
    cell.value = v;
    cell.seq.store(pos + 1, std::memory_order_release);  // publish
    return true;
  }

  /// Single-consumer batch pop: moves up to `max` values into `out`,
  /// returns the count. Only ONE thread may ever call this.
  std::size_t pop_batch(T* out, std::size_t max) {
    std::size_t n = 0;
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    while (n < max) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(pos + 1) <
          0)
        break;  // empty: this cell's value has not been published yet
      out[n++] = cell.value;
      // Free the cell for the producers' next lap.
      cell.seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
    }
    if (n > 0) head_.store(pos, std::memory_order_relaxed);
    return n;
  }

  /// Consumer-side fill level: the cells producers have claimed and the
  /// consumer has not popped. Every push that completed before this call
  /// (happens-before) is counted, so pop_batch(out, fill_level()) returns
  /// each of them; it returns fewer than the level when a claimed cell is
  /// still being written. Only the consumer may call this.
  [[nodiscard]] std::size_t fill_level() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_relaxed));
  }

  /// Racy size estimate for queue-depth gauges (never for control flow).
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  struct alignas(64) Cell {  // one cache line per cell: no false sharing
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  // Producers contend on tail_, the consumer owns head_ — separate lines.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

}  // namespace digg::serve

#pragma once
// The live vote-ingest server: a long-lived service wrapping a live-mode
// StreamEngine (stream/engine.h) behind the loopback binary protocol
// (protocol.h). Three threads:
//
//   front-end (epoll)  — accepts connections on 127.0.0.1, decodes frames,
//     validates story ids (it owns the id->slot map, so lookups are
//     lock-free), refuses every vote the engine would throw on (it keeps
//     each story's last accepted time and below-horizon voters), and
//     pushes each accepted submit and vote onto one lock-free ring
//     (mpsc_queue.h) in the order it accepts them: the ring's FIFO order
//     IS the wire order, and so slot-assignment order. Queries and syncs
//     go onto a small mutex-guarded deque, after every event accepted
//     before them is in the ring. Replies travel back through
//     per-connection outboxes; an eventfd wakes the front-end to flush
//     them.
//
//   coordinator        — the single ring consumer and the ONLY engine
//     mutator. Each drain cycle takes the controls, reads the ring's fill
//     level once, and pops at most that many entries: with one producer
//     publishing cells in order they are a wire-order prefix that covers
//     every event accepted before the controls. It applies the submits
//     serially (slot order is ring order), then, when the prefix holds a
//     vote, each shard's vote list via parallel_for — sound because
//     live_vote is safe across stories and per-story state cannot observe
//     cross-story order — and answers every
//     control it took, so a reply reflects every event accepted before it
//     (the protocol.h barrier contract). Engine state — and so every
//     checkpoint, periodic or drain — is therefore always a whole wire
//     prefix, bit-identical to any run that accepted the same events in
//     the same order.
//
//   checkpoint writer  — when checkpoint_ms is set, the coordinator
//     serializes engine state between applies (checkpoint_sections(), pure
//     in-memory) and hands the sections here; the writer does the disk I/O
//     (SectionFileWriter replaces the file atomically, so the file on disk
//     is always a complete checkpoint) off the hot path. Latest-wins: a
//     slow disk drops intermediate checkpoints instead of stalling ingest.
//
// Graceful drain (request_stop, SIGTERM-safe): the front-end performs one
// final read pass so every byte a client sent before the stop is decoded
// and enqueued, the coordinator drains the ring and answers every pending
// control item, stops and joins the checkpoint writer, writes a final
// synchronous checkpoint, and only then do the connections close — proven
// by the kill/resume e2e test, which restores the drain checkpoint and
// matches an uninterrupted run bit for bit.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/data/snapshot_format.h"
#include "src/graph/digraph.h"
#include "src/serve/mpsc_queue.h"
#include "src/stream/engine.h"

namespace digg::serve {

struct ServeParams {
  /// Engine configuration (the interestingness threshold, the C4.5
  /// predictor and Bayes hooks).
  stream::StreamParams stream;
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (start() returns it).
  std::uint16_t port = 0;
  /// Background checkpoint cadence in milliseconds; 0 disables periodic
  /// checkpoints (the drain checkpoint still happens when a path is set).
  std::uint32_t checkpoint_ms = 0;
  /// Checkpoint target; required when checkpoint_ms > 0. Replaced
  /// atomically (snapshot_format.h). Also the final drain checkpoint's
  /// destination.
  std::filesystem::path checkpoint_path;
  /// Capacity of the one front-end -> coordinator ring, in accepted events
  /// (rounded up to a power of two, at least 2). A full ring makes the
  /// front-end yield-retry (counted in serve.backpressure).
  std::size_t ring_capacity = 1 << 13;
};

/// Overrides `port` from DIGG_SERVE_PORT and `checkpoint_ms` from
/// DIGG_CHECKPOINT_MS. Each goes through obs::env_uint: a malformed or
/// out-of-range value warns and leaves the field as it was.
void read_env(ServeParams& params);

/// See the file comment for the thread architecture. Lifecycle:
/// construct -> [restore_checkpoint] -> start -> ... -> request_stop ->
/// wait. engine() is safe before start() and after wait() — never while
/// the server is running.
class Server {
 public:
  /// The network must outlive the server. Throws std::invalid_argument on
  /// inconsistent params (checkpoint cadence without a path).
  Server(const graph::Digraph& network, ServeParams params);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Restores a drain/periodic checkpoint into the (fresh) engine before
  /// serving. Pre-start only; throws std::logic_error once running.
  void restore_checkpoint(const std::filesystem::path& path);

  /// Binds, spawns the threads, returns the bound port. Throws
  /// std::runtime_error on socket failures, std::logic_error if restarted.
  std::uint16_t start();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Initiates graceful drain. Async-signal-safe (an atomic store plus an
  /// eventfd write) — callable straight from a SIGTERM handler.
  void request_stop() noexcept;

  /// Joins the threads (drain must have been requested; wait() does not
  /// itself stop the server). Idempotent.
  void wait();

  /// The underlying live engine — inspect results after wait() (or seed
  /// state before start()). Not synchronized with a running server.
  [[nodiscard]] stream::StreamEngine& engine() noexcept { return engine_; }

  [[nodiscard]] const ServeParams& params() const noexcept { return params_; }

 private:
  // The ring payload (trivially copyable by MpscQueue contract): one
  // accepted submit or vote. stamp_ns is nonzero on sampled votes only
  // (every 256th) and feeds serve.ingest_us.
  struct Entry {
    std::uint32_t slot;
    std::uint32_t user;  // the voter, or a submit's submitter
    std::uint32_t id;    // the story id
    bool submit;
    double time;
    std::uint64_t stamp_ns;
  };

  /// Per-connection reply buffer: the coordinator appends encoded replies
  /// under the mutex and rings the eventfd; the front-end swaps the bytes
  /// out and writes them to the socket. shared_ptr because a control item
  /// can outlive its connection (the flush just goes nowhere then).
  struct Outbox {
    std::mutex m;
    std::vector<char> buf;
  };

  struct ControlItem {
    enum class Kind : std::uint8_t { kQueryState, kQueryPredict, kSync };
    Kind kind = Kind::kSync;
    std::uint32_t slot = 0;   // queries: resolved by the front-end
    std::uint32_t token = 0;  // syncs
    std::shared_ptr<Outbox> out;
  };

  void frontend_main();
  void coordinator_main();
  void writer_main();

  void answer(const ControlItem& item);
  void write_checkpoint_file(std::vector<data::snapfmt::Section> sections);

  const graph::Digraph* network_;
  ServeParams params_;
  stream::StreamEngine engine_;

  MpscQueue<Entry> ring_;  // accepted events, front-end -> coordinator
  std::mutex control_mu_;
  std::deque<ControlItem> control_q_;

  // Drain handshake: stop_ -> front-end final read pass -> ingest_done_ ->
  // coordinator drains and answers -> coordinator_done_ -> front-end final
  // flush, connections close.
  std::atomic<bool> stop_{false};
  std::atomic<bool> ingest_done_{false};
  std::atomic<bool> coordinator_done_{false};
  std::atomic<bool> running_{false};
  bool started_ = false;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: coordinator replies + stop requests
  std::uint16_t port_ = 0;

  // Checkpoint hand-off (latest wins).
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::optional<std::vector<data::snapfmt::Section>> ckpt_pending_;
  bool ckpt_exit_ = false;

  std::thread frontend_;
  std::thread coordinator_;
  std::thread writer_;
};

}  // namespace digg::serve

#include "src/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "src/obs/env.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/runtime/parallel.h"
#include "src/serve/protocol.h"

namespace digg::serve {
namespace {

constexpr std::uint32_t kShards = stream::StreamEngine::kShardCount;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Story id -> slot, owned (and only touched) by the front-end thread.
/// Dense direct-map for small ids — the common case, ids are often near-
/// consecutive — with an unordered_map overflow for sparse ones.
class IdMap {
 public:
  static constexpr std::uint32_t kDenseLimit = 1u << 22;

  /// Returns the slot + 1, or 0 when absent (slots fit comfortably).
  std::uint32_t lookup(std::uint32_t id) const {
    if (id < dense_.size()) return dense_[id];
    const auto it = overflow_.find(id);
    return it == overflow_.end() ? 0 : it->second;
  }

  void insert(std::uint32_t id, std::uint32_t slot) {
    if (id < kDenseLimit) {
      if (id >= dense_.size()) dense_.resize(std::max<std::size_t>(id + 1, 1024), 0);
      dense_[id] = slot + 1;
    } else {
      overflow_[id] = slot + 1;
    }
  }

 private:
  std::vector<std::uint32_t> dense_;
  std::unordered_map<std::uint32_t, std::uint32_t> overflow_;
};

/// What the front-end keeps of each story (by slot) to refuse a vote the
/// engine's live_vote would throw on: the latest accepted time, and the
/// accepted voters up to the engine's horizon, the submitter first. The
/// voters are flat, `horizon` cells per story, so a story costs no
/// allocation of its own; once its prefix is full a vote costs one time
/// compare, so the check stays O(1) past the horizon.
class StoryGuards {
 public:
  explicit StoryGuards(std::size_t horizon) : horizon_(horizon) {}

  /// Registers the next slot with its accepted voters and latest time.
  void add(std::span<const platform::UserId> prefix, double last_time) {
    tails_.push_back({last_time, static_cast<std::uint32_t>(prefix.size())});
    const std::size_t first = voters_.size();
    voters_.resize(first + horizon_);
    std::ranges::copy(prefix, voters_.data() + first);
  }

  /// Records the vote, or returns why the engine would refuse it.
  std::optional<ErrorCode> accept(std::uint32_t slot, platform::UserId voter,
                                  double time) {
    Tail& t = tails_[slot];
    if (time < t.last_time) return ErrorCode::kTimeOrder;
    if (t.len < horizon_) {
      platform::UserId* const prefix = voters_.data() + slot * horizon_;
      if (std::find(prefix, prefix + t.len, voter) != prefix + t.len)
        return ErrorCode::kDuplicateVoter;
      prefix[t.len++] = voter;
    }
    t.last_time = time;
    return std::nullopt;
  }

 private:
  struct Tail {
    double last_time;
    std::uint32_t len;
  };
  std::size_t horizon_;
  std::vector<Tail> tails_;
  std::vector<platform::UserId> voters_;
};

}  // namespace

void read_env(ServeParams& params) {
  params.port = static_cast<std::uint16_t>(
      obs::env_uint("DIGG_SERVE_PORT", 0, 65535, params.port));
  params.checkpoint_ms = static_cast<std::uint32_t>(obs::env_uint(
      "DIGG_CHECKPOINT_MS", 0, UINT32_MAX, params.checkpoint_ms));
}

Server::Server(const graph::Digraph& network, ServeParams params)
    : network_(&network),
      params_(std::move(params)),
      engine_(network, params_.stream),
      ring_(params_.ring_capacity) {
  if (params_.checkpoint_ms > 0 && params_.checkpoint_path.empty())
    throw std::invalid_argument(
        "serve: checkpoint_ms set without a checkpoint_path");
}

Server::~Server() {
  if (running()) {
    request_stop();
    wait();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::restore_checkpoint(const std::filesystem::path& path) {
  if (started_)
    throw std::logic_error("serve: restore_checkpoint after start");
  engine_.restore_checkpoint(path);
}

std::uint16_t Server::start() {
  if (started_) throw std::logic_error("serve: server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(params_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throw std::runtime_error("serve: bind 127.0.0.1:" +
                             std::to_string(params_.port) + " failed: " +
                             std::strerror(errno));
  if (::listen(listen_fd_, 128) < 0)
    throw std::runtime_error("serve: listen() failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw std::runtime_error("serve: getsockname() failed");
  port_ = ntohs(addr.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw std::runtime_error("serve: eventfd() failed");

  started_ = true;
  running_.store(true, std::memory_order_release);
  frontend_ = std::thread([this] { frontend_main(); });
  writer_ = std::thread([this] { writer_main(); });  // joined by coordinator
  coordinator_ = std::thread([this] { coordinator_main(); });

  obs::log_info("serve", "listening",
                {{"port", static_cast<unsigned>(port_)},
                 {"checkpoint_ms", params_.checkpoint_ms}});
  return port_;
}

void Server::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto r = ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::wait() {
  if (frontend_.joinable()) frontend_.join();
  if (coordinator_.joinable()) coordinator_.join();
  running_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Front-end: epoll loop, frame decode, validation, ring hand-off.

void Server::frontend_main() {
  auto& registry = obs::Registry::global();
  auto& conn_gauge = registry.gauge("serve.connections");
  auto& votes_in = registry.counter("serve.votes");
  auto& submits_in = registry.counter("serve.submits");
  auto& backpressure = registry.counter("serve.backpressure");
  auto& bad_frames = registry.counter("serve.bad_frames");
  auto& rejected_unknown_user = registry.counter("serve.rejected_unknown_user");
  auto& rejected_bad_time = registry.counter("serve.rejected_bad_time");
  auto& rejected_duplicate_voter =
      registry.counter("serve.rejected_duplicate_voter");
  auto& rejected_time_order = registry.counter("serve.rejected_time_order");
  const std::size_t user_count = network_->node_count();

  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::shared_ptr<Outbox> outbox = std::make_shared<Outbox>();
    std::vector<char> wbuf;  // unsent reply bytes (partial writes)
    std::size_t woff = 0;
    bool want_write = false;
  };
  std::unordered_map<int, Conn> conns;

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    obs::log_error("serve", "epoll_create1 failed");
    return;
  }
  auto ep_add = [&](int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  };
  auto ep_mod = [&](int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, fd, &ev);
  };
  ep_add(listen_fd_, EPOLLIN);
  ep_add(wake_fd_, EPOLLIN);

  // Rebuild the id map and the story guards from restored engine state: a
  // restored live engine already holds stories whose ids must keep
  // resolving (and whose slots the next submit must not collide with), and
  // whose prefixes and times the next votes are checked against.
  IdMap ids;
  StoryGuards guards(engine_.horizon());
  std::uint32_t next_slot = engine_.story_count();
  for (std::uint32_t slot = 0; slot < next_slot; ++slot) {
    ids.insert(engine_.query_story(slot).id, slot);
    const auto prefix = engine_.live_prefix(slot);
    guards.add(prefix.voters, prefix.last_time);
  }

  std::uint64_t votes_seen = 0;

  auto close_conn = [&](int fd) {
    ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
    conn_gauge.set(static_cast<double>(conns.size()));
  };

  // Writes as much of conn's pending reply bytes as the socket accepts;
  // arms EPOLLOUT for the remainder. Returns false when the socket died.
  auto flush_conn = [&](Conn& c) -> bool {
    {
      std::lock_guard lock(c.outbox->m);
      if (!c.outbox->buf.empty()) {
        c.wbuf.insert(c.wbuf.end(), c.outbox->buf.begin(), c.outbox->buf.end());
        c.outbox->buf.clear();
      }
    }
    while (c.woff < c.wbuf.size()) {
      // MSG_NOSIGNAL: a peer that hung up is EPIPE here, not a SIGPIPE.
      const auto w = ::send(c.fd, c.wbuf.data() + c.woff,
                            c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (w > 0) {
        c.woff += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          ep_mod(c.fd, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      return false;  // peer gone
    }
    c.wbuf.clear();
    c.woff = 0;
    if (c.want_write) {
      c.want_write = false;
      ep_mod(c.fd, EPOLLIN);
    }
    return true;
  };

  auto send_error = [&](Conn& c, ErrorCode code, std::uint32_t detail) {
    encode(ErrorMsg{code, detail}, c.wbuf);
    return flush_conn(c);
  };
  // The engine indexes per-user state by id, so an id outside the network
  // is refused here, before it reaches a shard.
  auto reject_unknown_user = [&](Conn& c, std::uint32_t user) {
    rejected_unknown_user.inc();
    return send_error(c, ErrorCode::kUnknownUser, user);
  };
  // A NaN time passes every ordering check and poisons the Bayes fit, so
  // only finite times reach the engine.
  auto reject_bad_time = [&](Conn& c, std::uint32_t story_id) {
    rejected_bad_time.inc();
    return send_error(c, ErrorCode::kBadTime, story_id);
  };
  // A story's votes reach the engine in the order accepted here, so the
  // guards see exactly the state live_vote will check.
  auto reject_guarded = [&](Conn& c, ErrorCode code, std::uint32_t story_id) {
    (code == ErrorCode::kTimeOrder ? rejected_time_order
                                   : rejected_duplicate_voter)
        .inc();
    return send_error(c, code, story_id);
  };

  // Appends one accepted event to the wire order.
  auto push = [&](const Entry& e) {
    while (!ring_.try_push(e)) {
      backpressure.inc();
      std::this_thread::yield();
    }
  };

  // Hands one decoded message to its queue. Returns false when the
  // connection must close (protocol misuse).
  auto handle = [&](Conn& c, const Message& msg) -> bool {
    if (const auto* v = std::get_if<VoteMsg>(&msg)) {
      const auto mapped = ids.lookup(v->story_id);
      if (mapped == 0) return send_error(c, ErrorCode::kUnknownStory, v->story_id);
      if (v->voter >= user_count) return reject_unknown_user(c, v->voter);
      if (!std::isfinite(v->time)) return reject_bad_time(c, v->story_id);
      if (const auto refused = guards.accept(mapped - 1, v->voter, v->time))
        return reject_guarded(c, *refused, v->story_id);
      push({.slot = mapped - 1,
            .user = v->voter,
            .id = v->story_id,
            .submit = false,
            .time = v->time,
            .stamp_ns = ((votes_seen++ & 0xff) == 0) ? now_ns() : 0});
      votes_in.inc();
      return true;
    }
    if (const auto* s = std::get_if<SubmitMsg>(&msg)) {
      if (ids.lookup(s->story_id) != 0)
        return send_error(c, ErrorCode::kDuplicateStory, s->story_id);
      if (s->submitter >= user_count)
        return reject_unknown_user(c, s->submitter);
      if (!std::isfinite(s->time)) return reject_bad_time(c, s->story_id);
      ids.insert(s->story_id, next_slot);
      guards.add({&s->submitter, 1}, s->time);
      push({.slot = next_slot++,
            .user = s->submitter,
            .id = s->story_id,
            .submit = true,
            .time = s->time,
            .stamp_ns = 0});
      submits_in.inc();
      return true;
    }
    ControlItem item;
    if (const auto* q = std::get_if<QueryStateMsg>(&msg)) {
      const auto mapped = ids.lookup(q->story_id);
      if (mapped == 0) return send_error(c, ErrorCode::kUnknownStory, q->story_id);
      item.kind = ControlItem::Kind::kQueryState;
      item.slot = mapped - 1;
    } else if (const auto* q2 = std::get_if<QueryPredictMsg>(&msg)) {
      const auto mapped = ids.lookup(q2->story_id);
      if (mapped == 0)
        return send_error(c, ErrorCode::kUnknownStory, q2->story_id);
      item.kind = ControlItem::Kind::kQueryPredict;
      item.slot = mapped - 1;
    } else if (const auto* y = std::get_if<SyncMsg>(&msg)) {
      item.kind = ControlItem::Kind::kSync;
      item.token = y->token;
    } else {
      // A client sent a server->client message type: protocol misuse.
      bad_frames.inc();
      send_error(c, ErrorCode::kBadFrame, 0);
      return false;
    }
    // Every event accepted before the item is in the ring by now.
    item.out = c.outbox;
    {
      std::lock_guard lock(control_mu_);
      control_q_.push_back(std::move(item));
    }
    return true;
  };

  std::vector<char> rbuf(256 << 10);

  // Reads everything currently available on the connection and dispatches
  // the complete frames. Returns false when the connection closed (EOF,
  // error, or protocol violation).
  auto read_conn = [&](Conn& c) -> bool {
    for (;;) {
      const auto n = ::read(c.fd, rbuf.data(), rbuf.size());
      if (n > 0) {
        try {
          c.decoder.feed(rbuf.data(), static_cast<std::size_t>(n));
          Message msg;
          while (c.decoder.next(msg))
            if (!handle(c, msg)) return false;
        } catch (const ProtocolError&) {
          bad_frames.inc();
          send_error(c, ErrorCode::kBadFrame, 0);
          return false;
        }
        if (static_cast<std::size_t>(n) < rbuf.size()) return true;
        continue;  // buffer filled exactly: more may be waiting
      }
      if (n == 0) return false;  // EOF
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  };

  auto accept_all = [&] {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      if (stop_.load(std::memory_order_acquire)) {
        // Draining: refuse the session but tell the client why.
        std::vector<char> frame;
        encode(ErrorMsg{ErrorCode::kStopping, 0}, frame);
        [[maybe_unused]] const auto w =
            ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Conn c;
      c.fd = fd;
      conns.emplace(fd, std::move(c));
      ep_add(fd, EPOLLIN);
      conn_gauge.set(static_cast<double>(conns.size()));
    }
  };

  auto drain_wake = [&] {
    std::uint64_t tmp;
    while (::read(wake_fd_, &tmp, sizeof(tmp)) > 0) {
    }
  };

  auto flush_all = [&] {
    std::vector<int> dead;
    for (auto& [fd, c] : conns)
      if (!flush_conn(c)) dead.push_back(fd);
    for (const int fd : dead) close_conn(fd);
  };

  std::array<epoll_event, 64> evs;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()),
                               100);
    std::vector<int> dead;
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        accept_all();
        continue;
      }
      if (fd == wake_fd_) {
        drain_wake();
        continue;
      }
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;
      bool alive = true;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        // Half-closed peers may still have bytes queued: read them first.
        alive = read_conn(it->second) && false;
      } else {
        if (evs[i].events & EPOLLIN) alive = read_conn(it->second);
        if (alive && (evs[i].events & EPOLLOUT)) alive = flush_conn(it->second);
      }
      if (!alive) dead.push_back(fd);
    }
    for (const int fd : dead) close_conn(fd);
    flush_all();
  }

  // Drain phase 1: one final read pass so every byte clients managed to
  // send before the stop is decoded and enqueued.
  {
    std::vector<int> dead;
    for (auto& [fd, c] : conns)
      if (!read_conn(c)) dead.push_back(fd);
    for (const int fd : dead) close_conn(fd);
  }
  ingest_done_.store(true, std::memory_order_release);

  // Drain phase 2: keep flushing replies until the coordinator has applied
  // everything and answered every pending query/sync.
  while (!coordinator_done_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()),
                               20);
    for (int i = 0; i < n; ++i)
      if (evs[i].data.fd == wake_fd_) drain_wake();
    flush_all();
  }
  flush_all();

  for (auto& [fd, c] : conns) ::close(fd);
  conns.clear();
  conn_gauge.set(0.0);
  ::close(ep);
  ::close(listen_fd_);
  listen_fd_ = -1;
  obs::log_info("serve", "front-end drained");
}

// ---------------------------------------------------------------------------
// Coordinator: the single consumer / engine mutator.

void Server::coordinator_main() {
  auto& registry = obs::Registry::global();
  auto& ingest_us = registry.histogram("serve.ingest_us");
  auto& depth_gauge = registry.gauge("serve.queue_depth");

  std::vector<Entry> batch(ring_.capacity());
  std::array<std::vector<Entry>, kShards> shard_votes;
  std::deque<ControlItem> controls;

  auto last_ckpt = std::chrono::steady_clock::now();

  auto wake_frontend = [this] {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto r = ::write(wake_fd_, &one, sizeof(one));
  };

  for (;;) {
    // Seen before this cycle's pops: the front-end pushes nothing after
    // setting it, so this cycle applies and answers everything left.
    const bool last_cycle = ingest_done_.load(std::memory_order_acquire);

    // --- Take the controls, then the ring's prefix that precedes them. ---
    // A control is enqueued after every event accepted before it was
    // pushed, so the fill level read after taking it counts those events,
    // and the pop (one producer publishes cells in order) returns a wire-
    // order prefix that contains them. Reading the level once keeps a
    // cycle from chasing a producer that keeps pushing.
    {
      std::lock_guard lock(control_mu_);
      controls.swap(control_q_);
    }
    const std::size_t popped =
        ring_.pop_batch(batch.data(), ring_.fill_level());

    // --- Apply the prefix: submits serially, then shards in parallel. ----
    // A submit precedes its story's votes in the ring, so every vote
    // finds its slot. A prefix without votes (an idle cycle) starts no
    // pool job.
    std::size_t votes = 0;
    for (std::size_t i = 0; i < popped; ++i) {
      const Entry& e = batch[i];
      if (e.submit) {
        engine_.live_submit(e.id, e.user, e.time);
      } else {
        shard_votes[e.slot % kShards].push_back(e);
        ++votes;
      }
    }
    if (votes > 0)
      runtime::parallel_for(
          kShards,
          [&](std::size_t s) {
            for (const Entry& e : shard_votes[s]) {
              engine_.live_vote(e.slot, e.user, e.time);
              if (e.stamp_ns != 0)
                ingest_us.observe(
                    static_cast<double>(now_ns() - e.stamp_ns) / 1e3);
            }
            shard_votes[s].clear();
          },
          {.grain = 1});
    if (popped > 0) engine_.note_events_applied(popped);

    // --- Answer every control taken above. -------------------------------
    const bool idle = popped == 0 && controls.empty();
    for (const ControlItem& item : controls) answer(item);
    if (!controls.empty()) wake_frontend();
    controls.clear();

    depth_gauge.set(static_cast<double>(ring_.size_approx()));

    // --- Periodic checkpoint hand-off. -----------------------------------
    if (params_.checkpoint_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_ckpt >= std::chrono::milliseconds(params_.checkpoint_ms)) {
        last_ckpt = now;
        auto sections = engine_.checkpoint_sections();
        {
          std::lock_guard lock(ckpt_mu_);
          ckpt_pending_ = std::move(sections);  // latest wins
        }
        ckpt_cv_.notify_one();
      }
    }

    if (last_cycle) break;
    if (idle)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Stop the writer first: a periodic checkpoint still pending or being
  // written would share the final one's temporary file and could land
  // over it.
  {
    std::lock_guard lock(ckpt_mu_);
    ckpt_pending_.reset();
    ckpt_exit_ = true;
  }
  ckpt_cv_.notify_all();
  writer_.join();

  // Final synchronous checkpoint: the durable artifact of a graceful drain.
  if (!params_.checkpoint_path.empty()) {
    try {
      write_checkpoint_file(engine_.checkpoint_sections());
    } catch (const std::exception& e) {
      obs::log_error("serve", "final checkpoint failed", {{"error", e.what()}});
    }
  }
  coordinator_done_.store(true, std::memory_order_release);
  wake_frontend();
  obs::log_info("serve", "coordinator drained",
                {{"events", engine_.events_applied()},
                 {"stories", engine_.story_count()}});
}

void Server::answer(const ControlItem& item) {
  auto& registry = obs::Registry::global();
  auto& query_us = registry.histogram("serve.query_us");

  std::vector<char> frame;
  switch (item.kind) {
    case ControlItem::Kind::kSync:
      encode(SyncReplyMsg{item.token}, frame);
      break;
    case ControlItem::Kind::kQueryState: {
      const auto t0 = now_ns();
      StateReplyMsg reply;
      if (item.slot < engine_.story_count()) {
        auto outcome = engine_.query_story(item.slot);
        reply.story_id = outcome.id;
        reply.found = 1;
        reply.votes = outcome.final_votes;
        reply.fans1 = static_cast<std::uint32_t>(outcome.fans1);
        reply.cascade.reserve(outcome.cascade.size());
        for (const auto c : outcome.cascade)
          reply.cascade.push_back(static_cast<std::uint32_t>(c));
        reply.promoted = outcome.promoted_time.has_value() ? 1 : 0;
        reply.promoted_time = outcome.promoted_time.value_or(0.0);
      }
      query_us.observe(static_cast<double>(now_ns() - t0) / 1e3);
      encode(reply, frame);
      break;
    }
    case ControlItem::Kind::kQueryPredict: {
      const auto t0 = now_ns();
      PredictReplyMsg reply;
      if (item.slot < engine_.story_count()) {
        auto outcome = engine_.query_story(item.slot);
        reply.story_id = outcome.id;
        reply.found = 1;
        reply.has_c45 = outcome.predicted_interesting.has_value() ? 1 : 0;
        reply.c45_yes = outcome.predicted_interesting.value_or(false) ? 1 : 0;
        reply.has_bayes = outcome.bayes_interesting.has_value() ? 1 : 0;
        reply.bayes_yes = outcome.bayes_interesting.value_or(false) ? 1 : 0;
        reply.bayes_expected_final = outcome.bayes_expected_final;
      }
      query_us.observe(static_cast<double>(now_ns() - t0) / 1e3);
      encode(reply, frame);
      break;
    }
  }
  std::lock_guard lock(item.out->m);
  item.out->buf.insert(item.out->buf.end(), frame.begin(), frame.end());
}

// ---------------------------------------------------------------------------
// Checkpoint writer.

void Server::write_checkpoint_file(
    std::vector<data::snapfmt::Section> sections) {
  data::snapfmt::write_section_file(params_.checkpoint_path, sections);
  obs::Registry::global().counter("serve.checkpoints").inc();
}

void Server::writer_main() {
  std::unique_lock lock(ckpt_mu_);
  for (;;) {
    ckpt_cv_.wait(lock,
                  [this] { return ckpt_pending_.has_value() || ckpt_exit_; });
    if (ckpt_pending_.has_value()) {
      auto sections = std::move(*ckpt_pending_);
      ckpt_pending_.reset();
      lock.unlock();
      try {
        write_checkpoint_file(std::move(sections));
      } catch (const std::exception& e) {
        obs::log_error("serve", "background checkpoint failed",
                       {{"error", e.what()}});
      }
      lock.lock();
      continue;  // a newer checkpoint may have landed while writing
    }
    if (ckpt_exit_) return;
  }
}

}  // namespace digg::serve

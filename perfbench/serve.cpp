// serve: live ingest through an in-process serve::Server (engine at 1
// thread) over 2 loopback client connections, one thread each.
//
// Each corpus is sent as time-ordered events, stories split across the
// connections by id parity. Every round uses fresh story ids (round x
// stories + index); each story gets a predict query after its 10th vote
// (after its last event when it has fewer) and a state query after its last
// event. Two phases:
//   - closed loop (end-to-end and traced runs): a pass is, for each corpus,
//     a fresh server fed kRoundsPerPass rounds then one sync barrier per
//     connection; the barrier's latency is the end-to-end ack;
//   - open-loop paced (traced runs): for each corpus, a fresh server warmed
//     with one round, then kPacedEventsPerSec in total, sent every 0.5 ms
//     with a sync every 5 ms per connection, each sync's latency measured
//     from when it was due.
// Every state and predict reply must match a local live-mode StreamEngine
// fed the same events (the serve_load --verify oracle).

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common.h"
#include "measure.h"
#include "pacer.h"
#include "src/core/predictor.h"
#include "src/data/synthetic.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/client.h"
#include "src/serve/mpsc_queue.h"
#include "src/serve/server.h"
#include "src/stream/source.h"
#include "trace.h"

namespace perfbench {

using namespace digg;

namespace {

constexpr std::uint32_t kRoundsPerPass = 2;  // per corpus
constexpr double kPacedEventsPerSec = 125'000.0;  // all connections together
// The paced generator sends every 0.5 ms and syncs every 5 ms, per
// connection: events trickle in as independent users would send them, so a
// sync waits behind half a millisecond of events, not a 5 ms burst.
constexpr std::int64_t kSendIntervalNs = 500'000;
constexpr std::size_t kSyncEvery = 10;     // send slots per sync: 5 ms
constexpr std::size_t kPacedSyncs = 200;   // per connection and corpus: 1 s
constexpr double kAckLimitMs = 100.0;     // a later sync counts as failed
constexpr int kReplyTimeoutSec = 20;      // a missing reply fails the run
constexpr std::uint32_t kWarmToken = 0xffffffffu;

constexpr std::size_t kStoryIdOffset = 5;  // u32 length + u8 type

struct Expected {
  serve::StateReplyMsg state;
  serve::PredictReplyMsg predict;
};

// One connection's share of a round: its frames with the story ids of
// `round`, and where each event's frames end.
struct ConnLoad {
  std::vector<char> buf;
  std::vector<std::size_t> id_at;      // byte offset of every story-id field
  std::vector<std::size_t> event_end;  // past event i's frame + its queries
  std::vector<std::size_t> queries_through;  // queries in events [0, i]
  std::uint32_t round = 0;
  std::uint32_t stories = 0;  // id stride between rounds

  [[nodiscard]] std::size_t events() const { return event_end.size(); }
  [[nodiscard]] std::size_t queries() const {
    return queries_through.empty() ? 0 : queries_through.back();
  }
  // Rewrites every story id in place for round `r`.
  void set_round(std::uint32_t r) {
    const std::uint32_t delta = (r - round) * stories;
    for (const std::size_t off : id_at) {
      std::uint32_t id;
      std::memcpy(&id, buf.data() + off, sizeof(id));
      id += delta;
      std::memcpy(buf.data() + off, &id, sizeof(id));
    }
    round = r;
  }
};

struct Event {
  std::uint32_t slot;
  std::uint32_t k;  // vote index; 0 = the submit
};

struct State {
  data::SyntheticCorpus syn;
  core::InterestingnessPredictor predictor;
  serve::ServeParams serve_params;
  stream::EventStream stream;  // story table (slot = story index)
  std::vector<Event> order;    // one round, time-ordered
  std::array<ConnLoad, kServeConnections> conns;
  std::vector<Expected> expect;  // by story index
};

void build_load(State& st) {
  const auto& stories = st.stream.stories;
  const auto n = static_cast<std::uint32_t>(stories.size());
  st.order.clear();
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::uint32_t k = 0; k < stories[s].vote_count(); ++k)
      st.order.push_back({s, k});
  std::sort(st.order.begin(), st.order.end(),
            [&](const Event& a, const Event& b) {
              const double ta = stories[a.slot].times()[a.k];
              const double tb = stories[b.slot].times()[b.k];
              if (ta != tb) return ta < tb;
              if (a.slot != b.slot) return a.slot < b.slot;
              return a.k < b.k;
            });
  for (ConnLoad& c : st.conns) {
    c = ConnLoad{};
    c.stories = n;
  }
  for (const Event& e : st.order) {
    ConnLoad& c = st.conns[e.slot % kServeConnections];
    const platform::StoryView& s = stories[e.slot];
    const auto frame = [&](const serve::Message& m) {
      c.id_at.push_back(c.buf.size() + kStoryIdOffset);
      serve::encode(m, c.buf);
    };
    if (e.k == 0)
      frame(serve::SubmitMsg{e.slot, s.voters()[0], s.times()[0]});
    else
      frame(serve::VoteMsg{e.slot, s.voters()[e.k], s.times()[e.k]});
    const std::uint32_t last = static_cast<std::uint32_t>(s.vote_count()) - 1;
    std::size_t q = c.queries();
    if (e.k == std::min<std::uint32_t>(10, last)) {
      frame(serve::QueryPredictMsg{e.slot});
      ++q;
    }
    if (e.k == last) {
      frame(serve::QueryStateMsg{e.slot});
      ++q;
    }
    c.event_end.push_back(c.buf.size());
    c.queries_through.push_back(q);
  }
}

// The oracle: one round through a local live engine, story by story.
void build_expected(State& st) {
  stream::StreamEngine oracle(st.syn.corpus.network, st.serve_params.stream);
  st.expect.assign(st.stream.stories.size(), {});
  for (std::uint32_t i = 0; i < st.stream.stories.size(); ++i) {
    const platform::StoryView& s = st.stream.stories[i];
    const auto slot = oracle.live_submit(i, s.voters()[0], s.times()[0]);
    for (std::size_t k = 1; k < s.vote_count(); ++k)
      oracle.live_vote(slot, s.voters()[k], s.times()[k]);
    oracle.note_events_applied(s.vote_count());
    const stream::StoryOutcome o = oracle.query_story(slot);
    Expected& x = st.expect[i];
    x.state.found = 1;
    x.state.votes = o.final_votes;
    x.state.fans1 = static_cast<std::uint32_t>(o.fans1);
    for (const auto c : o.cascade)
      x.state.cascade.push_back(static_cast<std::uint32_t>(c));
    x.state.promoted = o.promoted_time.has_value() ? 1 : 0;
    x.state.promoted_time = o.promoted_time.value_or(0.0);
    x.predict.found = 1;
    x.predict.has_c45 = o.predicted_interesting.has_value() ? 1 : 0;
    x.predict.c45_yes = o.predicted_interesting.value_or(false) ? 1 : 0;
    x.predict.has_bayes = o.bayes_interesting.has_value() ? 1 : 0;
    x.predict.bayes_yes = o.bayes_interesting.value_or(false) ? 1 : 0;
    x.predict.bayes_expected_final = o.bayes_expected_final;
  }
}

void setup_corpus(const Options& opts, int j, State& st) {
  const data::ScenarioSpec spec = legacy_scenario(corpus_seed(opts.seed, j));
  {
    stats::Rng rng(spec.seed);
    st.syn = data::generate_corpus(spec.params, rng);
  }
  {
    stats::Rng rng = fig5_rng(spec.seed);
    st.predictor = core::fig5_prediction(st.syn.corpus, {}, rng).predictor;
  }
  st.serve_params = serve::ServeParams{};
  st.serve_params.stream.predictor = &st.predictor;
  st.serve_params.stream.bayes.enabled = true;
  st.stream = stream::build_event_stream(st.syn.corpus);
  build_load(st);
  build_expected(st);
  // Server start (and stop), as every pass does it.
  serve::Server server(st.syn.corpus.network, st.serve_params);
  (void)server.start();
  server.request_stop();
  server.wait();
}

using Corpora = std::vector<std::unique_ptr<State>>;

Corpora setup(const Options& opts) {
  Corpora cs;
  for (int j = 0; j < kCorpora; ++j) {
    cs.push_back(std::make_unique<State>());
    setup_corpus(opts, j, *cs.back());
  }
  return cs;
}

// Replies of one connection over one phase, checked against the oracle.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

bool state_matches(const serve::StateReplyMsg& got, const Expected& x) {
  return got.found == x.state.found &&
         got.votes == x.state.votes && got.fans1 == x.state.fans1 &&
         got.cascade == x.state.cascade && got.promoted == x.state.promoted &&
         got.promoted_time == x.state.promoted_time;
}

bool predict_matches(const serve::PredictReplyMsg& got, const Expected& x) {
  return got.found == x.predict.found &&
         got.has_c45 == x.predict.has_c45 &&
         got.c45_yes == x.predict.c45_yes &&
         got.has_bayes == x.predict.has_bayes &&
         got.bayes_yes == x.predict.bayes_yes &&
         got.bayes_expected_final == x.predict.bayes_expected_final;
}

// Counts the query replies in `replies` that match the oracle (story id
// round * stories + index expects the oracle's outcome for index). Each
// story of each round may be credited once per query kind.
std::uint64_t matching_queries(const State& st,
                               const std::vector<serve::Message>& replies) {
  const auto n = static_cast<std::uint32_t>(st.expect.size());
  std::vector<std::uint8_t> seen;  // per (round, index): bit 1 state, 2 predict
  std::uint64_t ok = 0;
  for (const serve::Message& m : replies) {
    std::uint32_t id = 0;
    std::uint8_t bit = 0;
    bool match = false;
    if (const auto* s = std::get_if<serve::StateReplyMsg>(&m)) {
      id = s->story_id;
      bit = 1;
      match = state_matches(*s, st.expect[id % n]);
    } else if (const auto* p = std::get_if<serve::PredictReplyMsg>(&m)) {
      id = p->story_id;
      bit = 2;
      match = predict_matches(*p, st.expect[id % n]);
    } else {
      continue;
    }
    if (seen.size() <= id) seen.resize(id + 1, 0);
    if (match && (seen[id] & bit) == 0) ++ok;
    seen[id] |= bit;
  }
  return ok;
}

class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(serve::connect_loopback(port)) {
    if (fd_ < 0) return;
    timeval tv{kReplyTimeoutSec, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  bool send(const char* p, std::size_t n) {
    return fd_ >= 0 && serve::write_all(fd_, p, n);
  }
  bool send_sync(std::uint32_t token) {
    std::vector<char> frame;
    serve::encode(serve::SyncMsg{token}, frame);
    return send(frame.data(), frame.size());
  }
  // Sends a sync and reads replies until `want` more arrived; true when
  // the last is the matching sync reply.
  bool sync_and_collect(std::uint32_t token, std::size_t want,
                        std::vector<serve::Message>& out) {
    if (!send_sync(token)) return false;
    std::string error;
    const std::size_t target = out.size() + want;
    if (!serve::read_messages(fd_, decoder_, out, target, error)) return false;
    const auto* r = std::get_if<serve::SyncReplyMsg>(&out.back());
    return r != nullptr && r->token == token;
  }
  // Waits until `deadline_ns` or until bytes arrive, then decodes what
  // came: sync replies go to on_sync(token), the rest to `out`. False on
  // an error reply, a protocol error or a closed connection.
  template <class OnSync>
  bool wait_replies(std::int64_t deadline_ns, std::vector<serve::Message>& out,
                    OnSync&& on_sync) {
    const std::int64_t left = std::max<std::int64_t>(0, deadline_ns - now_ns());
    pollfd pfd{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(left / 1'000'000'000),
                      static_cast<long>(left % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char buf[64 << 10];
    const auto n = ::read(fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    try {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      serve::Message msg;
      while (decoder_.next(msg)) {
        if (std::holds_alternative<serve::ErrorMsg>(msg)) return false;
        if (const auto* r = std::get_if<serve::SyncReplyMsg>(&msg))
          on_sync(r->token);
        else
          out.push_back(msg);
      }
    } catch (const serve::ProtocolError&) {
      return false;
    }
    return true;
  }

 private:
  int fd_;
  serve::FrameDecoder decoder_;
};

struct RealClock {
  std::int64_t now() const { return now_ns(); }
};

struct ClosedPass {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::vector<double> barrier_ms;  // per corpus and connection
  Tally tally;
};

// One corpus's share of a closed-loop pass, against a fresh server.
ClosedPass closed_loop_corpus(State& st) {
  ClosedPass out;
  serve::Server server(st.syn.corpus.network, st.serve_params);
  const std::uint16_t port = server.start();
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::uint32_t c = 0; c < kServeConnections; ++c)
    conns.push_back(std::make_unique<Connection>(port));
  std::vector<std::vector<serve::Message>> replies(kServeConnections);
  std::vector<char> synced(kServeConnections, 0);
  std::vector<double> barrier_ms(kServeConnections, 0.0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::uint32_t root = 0;
  std::int64_t t0 = 0;
  {
    ScopedSpan pass("serve.pass");
    root = pass.id();
    for (std::uint32_t c = 0; c < kServeConnections; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        ConnLoad& load = st.conns[c];
        Connection& conn = *conns[c];
        bool ok = conn.ok();
        for (std::uint32_t r = 0; ok && r < kRoundsPerPass; ++r) {
          ScopedSpan s("serve.client_send", root);
          load.set_round(r);
          ok = conn.send(load.buf.data(), load.buf.size());
        }
        if (!ok) return;
        ScopedSpan s("serve.client_await", root);
        const std::int64_t sent = now_ns();
        synced[c] = conn.sync_and_collect(
            c, kRoundsPerPass * load.queries() + 1, replies[c]);
        barrier_ms[c] = seconds_between(sent, now_ns()) * 1e3;
      });
    }
    t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    out.seconds = seconds_between(t0, now_ns());
  }
  server.request_stop();
  server.wait();

  out.barrier_ms = barrier_ms;
  for (std::uint32_t c = 0; c < kServeConnections; ++c) {
    const ConnLoad& load = st.conns[c];
    const std::uint64_t events = kRoundsPerPass * load.events();
    const std::uint64_t queries = kRoundsPerPass * load.queries();
    out.events += events;
    out.tally.attempted += events + queries + 1;
    if (!synced[c]) out.tally.failed += events + 1;
    const std::uint64_t bad = queries - matching_queries(st, replies[c]);
    out.tally.failed += bad;
    if (!synced[c] || bad != 0)
      std::fprintf(stderr, "serve closed loop: connection %u %s, %llu of "
                   "%llu query replies missing or wrong\n", c,
                   synced[c] ? "synced" : "failed to sync",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(queries));
  }
  return out;
}

// One closed-loop pass: every corpus in turn. Only the sync-to-sync
// windows are timed, not server start and stop between corpora.
ClosedPass closed_loop_pass(Corpora& cs) {
  ClosedPass out;
  for (auto& st : cs) {
    const ClosedPass p = closed_loop_corpus(*st);
    out.seconds += p.seconds;
    out.events += p.events;
    out.barrier_ms.insert(out.barrier_ms.end(), p.barrier_ms.begin(),
                          p.barrier_ms.end());
    out.tally.attempted += p.tally.attempted;
    out.tally.failed += p.tally.failed;
  }
  return out;
}

struct PacedPhase {
  std::vector<PacedSample> samples;
  Tally tally;
};

// The open-loop phase on one corpus: a fresh server is warmed with one
// closed-loop round, then kPacedSyncs syncs per connection follow.
PacedPhase paced_corpus(State& st) {
  PacedPhase out;
  serve::Server server(st.syn.corpus.network, st.serve_params);
  const std::uint16_t port = server.start();
  std::vector<std::vector<PacedSample>> samples(kServeConnections);
  std::vector<Tally> tallies(kServeConnections);
  std::atomic<std::uint32_t> warmed{0};
  std::atomic<std::int64_t> start{0};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnLoad& load = st.conns[c];
      Connection conn(port);
      std::vector<serve::Message> replies;
      // Warm-up: round 0, closed loop, outside the schedule.
      load.set_round(0);
      const bool warm = conn.send(load.buf.data(), load.buf.size()) &&
                        conn.sync_and_collect(kWarmToken, load.queries() + 1,
                                              replies);
      if (warm) replies.pop_back();  // the sync reply
      std::uint64_t sent_events = load.events(), sent_queries = load.queries();
      std::uint64_t acked_events = warm ? sent_events : 0;
      warmed.fetch_add(1);
      while (start.load() == 0) std::this_thread::yield();
      load.set_round(1);
      std::size_t next = 0;  // next event of the current round
      const std::size_t slots = kPacedSyncs * kSyncEvery;
      std::vector<std::uint64_t> events_through(slots, 0);  // sent by slot k
      const std::uint64_t warm_events = sent_events;
      RealClock clock;
      auto send = [&](std::size_t k) {
        // Events due by the end of slot k, over the whole phase.
        const auto due_total = static_cast<std::uint64_t>(
            kPacedEventsPerSec / kServeConnections *
            static_cast<double>((k + 1) * kSendIntervalNs) / 1e9);
        std::size_t left = due_total - (sent_events - warm_events);
        while (left > 0) {
          if (next == load.events()) {
            load.set_round(load.round + 1);
            next = 0;
          }
          const std::size_t end = std::min(load.events(), next + left);
          const std::size_t from = next == 0 ? 0 : load.event_end[next - 1];
          const std::size_t q0 = next == 0 ? 0 : load.queries_through[next - 1];
          if (!conn.send(load.buf.data() + from, load.event_end[end - 1] - from))
            return false;
          sent_queries += load.queries_through[end - 1] - q0;
          sent_events += end - next;
          left -= end - next;
          next = end;
        }
        events_through[k] = sent_events;
        return !is_sync_slot(k, kSyncEvery) ||
               conn.send_sync(static_cast<std::uint32_t>(k));
      };
      auto wait = [&](std::int64_t deadline, auto&& on_reply) {
        return conn.wait_replies(deadline, replies, [&](std::uint32_t token) {
          if (token >= slots) return;
          acked_events = std::max(acked_events, events_through[token]);
          on_reply(token);
        });
      };
      if (warm)
        run_paced(clock, start.load(), kSendIntervalNs, slots, kSyncEvery,
                  std::int64_t{kReplyTimeoutSec} * 1'000'000'000, send, wait,
                  samples[c]);
      Tally& t = tallies[c];
      std::uint64_t over_limit = 0;
      for (const PacedSample& s : samples[c])
        if (s.ack_ms > kAckLimitMs) ++over_limit;
      const std::uint64_t bad_queries =
          sent_queries - matching_queries(st, replies);
      // A slot never sent (the run failed first) counts as a failed sync.
      const std::uint64_t unanswered = kPacedSyncs - samples[c].size();
      t.attempted = sent_events + sent_queries + kPacedSyncs + 1;
      t.failed = (sent_events - acked_events) + unanswered + over_limit +
                 bad_queries + (warm ? 0 : 1);
      if (t.failed != 0)
        std::fprintf(stderr, "serve paced: connection %u: %llu syncs over "
                     "%.0f ms, %llu unanswered, %llu query replies missing or "
                     "wrong\n", c, static_cast<unsigned long long>(over_limit),
                     kAckLimitMs, static_cast<unsigned long long>(unanswered),
                     static_cast<unsigned long long>(bad_queries));
    });
  }
  while (warmed.load() < kServeConnections) std::this_thread::yield();
  start.store(now_ns() + 2'000'000);
  for (std::thread& t : threads) t.join();
  server.request_stop();
  server.wait();
  for (std::uint32_t c = 0; c < kServeConnections; ++c) {
    out.samples.insert(out.samples.end(), samples[c].begin(), samples[c].end());
    out.tally.attempted += tallies[c].attempted;
    out.tally.failed += tallies[c].failed;
  }
  return out;
}

PacedPhase paced_phase(Corpora& cs) {
  PacedPhase out;
  for (auto& st : cs) {
    const PacedPhase p = paced_corpus(*st);
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.tally.attempted += p.tally.attempted;
    out.tally.failed += p.tally.failed;
  }
  return out;
}

void add_tally(RunResult& r, const Tally& t) {
  r.attempted += t.attempted;
  r.failed += t.failed;
}

std::vector<double> acks_ms(const PacedPhase& p) {
  std::vector<double> v;
  for (const PacedSample& s : p.samples) v.push_back(s.ack_ms);
  return v;
}

}  // namespace

RunResult run_serve(const Options& opts) {
  runtime::set_default_threads(kServeEngineThreads);
  RunResult r;
  std::vector<double> setups;
  Corpora cs;
  for (int j = 0; j < kCorpora; ++j) {
    const std::int64_t t0 = now_ns();
    cs.push_back(std::make_unique<State>());
    setup_corpus(opts, j, *cs.back());
    setups.push_back(seconds_between(t0, now_ns()));
  }
  add_tally(r, closed_loop_pass(cs).tally);  // warm-up

  std::vector<double> pass_s, votes_per_s, barrier_ms;
  const std::int64_t start = now_ns();
  while (pass_s.size() < 3 || seconds_between(start, now_ns()) < opts.seconds) {
    const ClosedPass p = closed_loop_pass(cs);
    add_tally(r, p.tally);
    pass_s.push_back(p.seconds);
    votes_per_s.push_back(static_cast<double>(p.events) / p.seconds);
    barrier_ms.insert(barrier_ms.end(), p.barrier_ms.begin(),
                      p.barrier_ms.end());
  }
  log_values("setup_s", setups);
  log_values("pass_s", pass_s);
  r.metrics["setup_s"] = median(setups);
  r.metrics["pass_s"] = median(pass_s);
  r.metrics["votes_per_s"] = median(votes_per_s);
  r.metrics["ack_p50_ms"] = median(barrier_ms);
  return r;
}

RunResult trace_serve(const Options& opts) {
  constexpr int kPairs = 3;
  runtime::set_default_threads(kServeEngineThreads);
  Tracer& tracer = Tracer::global();
  RunResult r;
  Corpora cs = setup(opts);
  const State& st = *cs.front();  // the isolated probes use corpus 0
  add_tally(r, closed_loop_pass(cs).tally);  // warm-up

  CounterWindow backpressure("serve.backpressure");
  HistogramWindow ingest_us("serve.ingest_us");
  HistogramWindow query_us("serve.query_us");
  std::vector<double> untraced, traced, votes_per_s;
  for (int i = 0; i < kPairs; ++i) {
    ClosedPass p = closed_loop_pass(cs);
    add_tally(r, p.tally);
    untraced.push_back(p.seconds);
    votes_per_s.push_back(static_cast<double>(p.events) / p.seconds);
    tracer.enable(true);
    p = closed_loop_pass(cs);
    tracer.enable(false);
    add_tally(r, p.tally);
    traced.push_back(p.seconds);
  }
  const double ingest_p50 = ingest_us.quantile(0.50);
  const double ingest_p99 = ingest_us.quantile(0.99);
  const double query_p50 = query_us.quantile(0.50);
  const double query_p99 = query_us.quantile(0.99);
  const double backpressure_n = backpressure.delta();
  const PassBreakdown b = breakdown(tracer.spans(), "serve.pass");

  const PacedPhase paced = paced_phase(cs);
  add_tally(r, paced.tally);
  const std::optional<Percentile> ack_tail =
      highest_supported_percentile(acks_ms(paced));
  std::vector<double> late;
  for (const PacedSample& s : paced.samples) late.push_back(s.late_ms);
  const std::optional<Percentile> late_tail = highest_supported_percentile(late);

  // Isolated stage costs over one round.
  const double round_events = static_cast<double>(st.order.size());
  std::vector<double> decode_ns;
  std::size_t frames = 0;
  for (int rep = 0; rep < 5; ++rep) {
    frames = 0;
    const std::int64_t t0 = now_ns();
    for (const ConnLoad& c : st.conns) {
      serve::FrameDecoder dec;
      serve::Message msg;
      for (std::size_t off = 0; off < c.buf.size(); off += 64 << 10) {
        dec.feed(c.buf.data() + off, std::min<std::size_t>(64 << 10,
                                                           c.buf.size() - off));
        while (dec.next(msg)) ++frames;
      }
    }
    decode_ns.push_back(static_cast<double>(now_ns() - t0) /
                        static_cast<double>(frames));
  }
  struct RingEntry {  // the server's vote-ring entry layout
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t voter;
    double time;
    std::uint64_t stamp_ns;
  };
  std::vector<double> ring_ns;
  for (int rep = 0; rep < 5; ++rep) {
    serve::MpscQueue<RingEntry> ring(st.serve_params.ring_capacity);
    std::array<RingEntry, 512> batch{};
    std::uint64_t moved = 0;
    const std::int64_t t0 = now_ns();
    while (moved < st.order.size()) {
      for (std::uint64_t i = 0; i < batch.size(); ++i)
        (void)ring.try_push(RingEntry{moved + i, 0, 0, 0.0, 0});
      moved += ring.pop_batch(batch.data(), batch.size());
    }
    ring_ns.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(moved));
  }
  std::vector<double> apply_ns, query_call_us;
  for (int rep = 0; rep < 3; ++rep) {
    stream::StreamEngine live(st.syn.corpus.network, st.serve_params.stream);
    std::vector<std::uint32_t> slot_of(st.stream.stories.size());
    const std::int64_t t0 = now_ns();
    for (const Event& e : st.order) {
      const platform::StoryView& s = st.stream.stories[e.slot];
      if (e.k == 0)
        slot_of[e.slot] = live.live_submit(e.slot, s.submitter, s.times()[0]);
      else
        live.live_vote(slot_of[e.slot], s.voters()[e.k], s.times()[e.k]);
    }
    live.note_events_applied(st.order.size());
    apply_ns.push_back(static_cast<double>(now_ns() - t0) / round_events);
    const std::int64_t q0 = now_ns();
    for (std::uint32_t slot = 0; slot < live.story_count(); ++slot)
      (void)live.query_story(slot);
    query_call_us.push_back(static_cast<double>(now_ns() - q0) / 1e3 /
                            static_cast<double>(live.story_count()));
  }
  const double closed_ns = 1e9 / median(votes_per_s);
  const std::array<std::pair<const char*, double>, 3> stages = {{
      {"decode", median(decode_ns)},
      {"ring", median(ring_ns)},
      {"live apply", median(apply_ns)},
  }};
  const auto bottleneck = *std::max_element(
      stages.begin(), stages.end(),
      [](const auto& a, const auto& b2) { return a.second < b2.second; });

  auto& m = r.metrics;
  m["serve.decode_ns_per_frame"] = median(decode_ns);
  m["serve.ring_ns_per_entry"] = median(ring_ns);
  m["stream.live_apply_ns"] = median(apply_ns);
  m["serve.backpressure"] = backpressure_n;
  m["serve.bottleneck_share"] = bottleneck.second / closed_ns;
  m["stream.query_us"] = median(query_call_us);
  m["serve.ingest_us_p50"] = ingest_p50;
  m["serve.ingest_us_p99"] = ingest_p99;
  m["serve.query_us_p50"] = query_p50;
  m["serve.query_us_p99"] = query_p99;
  m["serve.paced_ack_p50_ms"] = median(acks_ms(paced));
  m["serve.ack_p99_ms"] = ack_tail ? ack_tail->value : 0.0;
  m["serve.ack_samples"] = static_cast<double>(paced.samples.size());
  m["serve.late_ms_p99"] = late_tail ? late_tail->value : 0.0;
  m["serve.explained_frac"] = median(b.explained);
  m["serve.trace_overhead_frac"] =
      (median(traced) - median(untraced)) / median(untraced);

  add_row(r, "serve (engine %u thread, %u connections): closed-loop pass "
          "%.3f s untraced (%.0f events/s), %.3f s traced; %.1f%% of traced "
          "wall time in client spans (one per connection thread, so shares "
          "add up to about 200%%)",
          kServeEngineThreads, kServeConnections, median(untraced),
          median(votes_per_s), median(traced), 100.0 * median(b.explained));
  add_span_table(r, b);
  add_row(r, "  paced %.0f events/s: %zu syncs, ack p50 %.3f ms, ack p%g "
          "%.3f ms, generator late p%g %.3f ms",
          kPacedEventsPerSec, paced.samples.size(), median(acks_ms(paced)),
          ack_tail ? ack_tail->pct : 0.0, m["serve.ack_p99_ms"],
          late_tail ? late_tail->pct : 0.0, m["serve.late_ms_p99"]);
  add_row(r, "  isolated per event: decode %.1f ns, ring %.1f ns, live apply "
          "%.1f ns vs %.1f ns closed loop; bottleneck %s (share %.3f)",
          m["serve.decode_ns_per_frame"], m["serve.ring_ns_per_entry"],
          m["stream.live_apply_ns"], closed_ns, bottleneck.first,
          m["serve.bottleneck_share"]);
  add_row(r, "  server histograms: ingest p50 %.1f us p99 %.1f us, query p50 "
          "%.1f us p99 %.1f us, backpressure %.0f",
          ingest_p50, ingest_p99, query_p50, query_p99, backpressure_n);
  return r;
}

}  // namespace perfbench

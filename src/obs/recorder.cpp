#include "src/obs/recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <vector>

#include "src/obs/env.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace digg::obs {

namespace {

// ---------------------------------------------------------------- storage

struct Slot {
  std::atomic<std::uint64_t> seq{0};  // 2k+2 once ordinal k is stable
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint32_t> kind{0};
  std::atomic<std::uint32_t> dom{0};
};

struct Ring {
  explicit Ring(std::size_t cap) : slots(cap) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};  // events ever recorded on this ring
};

// Fixed lock-free ring table: registration is one fetch_add + release
// store, readable from signal handlers without locks. Rings leak by design
// — a crashed or exited thread's last events must stay dumpable.
constexpr std::size_t kMaxRings = 512;
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};

std::atomic<int> g_enabled{-1};  // -1 unset, 0 off, 1 on

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

void write_trace_at_exit();

/// The DIGG_TRACE target ("" when unset), resolved once; a set target arms
/// the exit-time export. Leaked: the export runs from atexit, after static
/// destructors registered later would have run.
const std::string& trace_path() {
  static const std::string* path = [] {
    const char* env = std::getenv("DIGG_TRACE");
    auto* p = new std::string(env != nullptr ? env : "");
    if (!p->empty()) std::atexit(write_trace_at_exit);
    return p;
  }();
  return *path;
}

void write_trace_at_exit() { write_chrome_trace(trace_path()); }

std::size_t ring_capacity() {
  static const std::size_t cap = recorder_events_from_env();
  return cap;
}

Ring* acquire_ring() {
  const std::size_t i = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxRings) return nullptr;  // beyond the table: stop recording
  auto* ring = new Ring(ring_capacity());
  g_rings[i].store(ring, std::memory_order_release);
  return ring;
}

thread_local Ring* tl_ring = nullptr;

/// The calling thread's ring, acquired on first use; null once the ring
/// table is full (that thread then records nothing).
Ring* thread_ring() {
  if (tl_ring == nullptr) tl_ring = acquire_ring();
  return tl_ring;
}

void append(Ring& ring, EventKind kind, std::uint64_t t_ns, std::uint32_t dom,
            std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t k = ring.head.load(std::memory_order_relaxed);
  Slot& s = ring.slots[k % ring.slots.size()];
  s.seq.store(2 * k + 1, std::memory_order_relaxed);  // mark in progress
  s.t_ns.store(t_ns, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_relaxed);
  s.dom.store(dom, std::memory_order_relaxed);
  s.seq.store(2 * k + 2, std::memory_order_release);
  ring.head.store(k + 1, std::memory_order_release);
}

// One decoded event, plus the validated read that produced it.
struct DecodedEvent {
  std::uint64_t ordinal;
  std::uint64_t t_ns;
  std::uint64_t a;
  std::uint64_t b;
  std::uint32_t kind;
  std::uint32_t dom;
};

/// Seqlock read of ordinal `k` from `ring`. False = torn or overwritten.
bool read_slot(const Ring& ring, std::uint64_t k, DecodedEvent& out) noexcept {
  const Slot& s = ring.slots[k % ring.slots.size()];
  const std::uint64_t want = 2 * k + 2;
  if (s.seq.load(std::memory_order_acquire) != want) return false;
  out.ordinal = k;
  out.t_ns = s.t_ns.load(std::memory_order_relaxed);
  out.a = s.a.load(std::memory_order_relaxed);
  out.b = s.b.load(std::memory_order_relaxed);
  out.kind = s.kind.load(std::memory_order_relaxed);
  out.dom = s.dom.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == want;
}

// ------------------------------------------- signal-safe text formatting

/// Appends decimal `v` to `p` (caller guarantees space); returns new end.
char* append_dec(char* p, std::uint64_t v) noexcept {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *p++ = tmp[--n];
  return p;
}

char* append_str(char* p, const char* s, std::size_t max = 64) noexcept {
  while (*s != '\0' && max-- > 0) *p++ = *s++;
  return p;
}

bool is_span(std::uint32_t kind) noexcept {
  return kind == static_cast<std::uint32_t>(EventKind::kSpanBegin) ||
         kind == static_cast<std::uint32_t>(EventKind::kSpanEnd);
}

/// A span event's name: its `a` holds the pointer to a static literal.
const char* span_name(const DecodedEvent& e) noexcept {
  return reinterpret_cast<const char*>(static_cast<std::uintptr_t>(e.a));
}

void write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // best effort: a full pipe must not hang a handler
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Formats one event line into `buf` (must hold >= 256 bytes; names are cut
/// at 64 characters); returns its length. Shared by the in-memory dump and
/// the signal-handler dump so the two outputs are line-for-line identical.
std::size_t format_event_line(char* buf, std::size_t ring_index,
                              const DecodedEvent& e) noexcept {
  char* p = buf;
  p = append_str(p, "ring=");
  p = append_dec(p, ring_index);
  p = append_str(p, " seq=");
  p = append_dec(p, e.ordinal);
  p = append_str(p, " t_us=");
  p = append_dec(p, e.t_ns / 1000);
  p = append_str(p, " kind=");
  p = append_str(p, event_kind_name(static_cast<EventKind>(e.kind)));
  p = append_str(p, " dom=");
  p = append_dec(p, e.dom);
  if (is_span(e.kind)) {
    p = append_str(p, " name=");
    p = append_str(p, span_name(e));
  } else {
    p = append_str(p, " a=");
    p = append_dec(p, e.a);
  }
  p = append_str(p, " b=");
  p = append_dec(p, e.b);
  *p++ = '\n';
  return static_cast<std::size_t>(p - buf);
}

/// Walks every ring's surviving ordinals oldest-first: calls
/// on_ring(r, overwritten) once per ring, with the count of events it has
/// lost to wraparound, then on_event(r, e) per validated event. Lock-free
/// and allocation-free (so signal-safe when the callbacks are).
template <typename OnRing, typename OnEvent>
void for_each_event(OnRing&& on_ring, OnEvent&& on_event) {
  const std::size_t count =
      std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t r = 0; r < count; ++r) {
    const Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(head, ring->slots.size());
    on_ring(r, head - n);
    for (std::uint64_t k = head - n; k < head; ++k) {
      DecodedEvent e;
      if (!read_slot(*ring, k, e)) continue;  // torn: overwritten mid-read
      on_event(r, e);
    }
  }
}

/// Calls emit(line, len) per validated event, formatted for dumps.
template <typename Emit>
void for_each_event_line(Emit&& emit) noexcept {
  for_each_event([](std::size_t, std::uint64_t) {},
                 [&emit](std::size_t r, const DecodedEvent& e) {
                   char line[256];
                   emit(line, format_event_line(line, r, e));
                 });
}

// -------------------------------------------------------- crash handlers

char g_crash_path[1024];
std::atomic<bool> g_handlers_installed{false};

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGUSR2: return "SIGUSR2";
    case 0: return "none";
  }
  return "?";
}

void crash_signal_handler(int sig) {
  const int fd =
      ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    write_crash_report(fd, sig);
    ::close(fd);
  }
  if (sig == SIGUSR2) return;  // live dump: keep running
  // Fatal path: SA_RESETHAND already restored the default disposition, so
  // re-raising terminates with the original signal semantics (core dumps,
  // wait status). _exit is the backstop if raise somehow returns.
  ::raise(sig);
  ::_exit(128 + sig);
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kMark: return "mark";
    case EventKind::kVoteApplied: return "vote_applied";
    case EventKind::kCheckpointRecorded: return "checkpoint_recorded";
    case EventKind::kCheckpointRestore: return "checkpoint_restore";
    case EventKind::kStoryRetired: return "story_retired";
    case EventKind::kSpanBegin: return "span_begin";
    case EventKind::kSpanEnd: return "span_end";
  }
  return "?";
}

bool recorder_enabled() noexcept {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v == -1) {
    v = recorder_enabled_from_env() ? 1 : 0;
    (void)trace_path();  // arms the DIGG_TRACE export, recorder on or off
    // Benign race: every loser computes the same env-derived value.
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_recorder_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool recorder_enabled_from_env() {
  const std::string_view v =
      env_choice("DIGG_RECORDER", {"on", "1", "off", "0"}, "on");
  return v == "on" || v == "1";
}

std::size_t recorder_events_from_env() {
  // A traced run defaults to the largest ring so the export is complete.
  return env_uint("DIGG_RECORDER_EVENTS", 16, 65536,
                  trace_path().empty() ? 256 : 65536);
}

void record_event(EventKind kind, std::uint32_t dom, std::uint64_t a,
                  std::uint64_t b) noexcept {
  if (!recorder_enabled()) return;
  if (Ring* ring = thread_ring()) append(*ring, kind, now_ns(), dom, a, b);
}

Span::Span(const char* name, std::uint64_t arg, Histogram* latency) noexcept
    : name_(name), arg_(arg), latency_(latency) {
  if (!recorder_enabled()) return;
  active_ = true;
  exceptions_ = std::uncaught_exceptions();
  begin_ns_ = now_ns();
  if (Ring* ring = thread_ring())
    append(*ring, EventKind::kSpanBegin, begin_ns_, 0,
           reinterpret_cast<std::uintptr_t>(name_), arg_);
}

Span::~Span() {
  // A begun span always records its end, so begins and ends pair up even
  // if the recorder is switched off in between.
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  if (Ring* ring = thread_ring())
    append(*ring, EventKind::kSpanEnd, end_ns, 0,
           reinterpret_cast<std::uintptr_t>(name_), arg_);
  if (latency_ != nullptr && std::uncaught_exceptions() == exceptions_)
    latency_->observe(static_cast<double>(end_ns - begin_ns_) / 1e3);
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_error("obs", "cannot write trace file", {{"path", path}});
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  const char* sep = "\n";
  std::size_t written = 0;
  std::size_t open = 0;  // spans begun and not yet ended on this ring
  for_each_event(
      [&open](std::size_t r, std::uint64_t overwritten) {
        open = 0;
        if (overwritten > 0)
          log_warn("obs", "trace ring wrapped; its oldest events are lost",
                   {{"ring", r}, {"overwritten", overwritten}});
      },
      [&](std::size_t r, const DecodedEvent& e) {
        const double ts = static_cast<double>(e.t_ns) / 1e3;
        const auto kind = static_cast<EventKind>(e.kind);
        if (is_span(e.kind)) {
          const bool begin = kind == EventKind::kSpanBegin;
          if (!begin && open == 0) return;  // its begin was overwritten
          if (begin)
            ++open;
          else
            --open;
          std::fprintf(f,
                       "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,"
                       "\"pid\":1,\"tid\":%zu,\"args\":{\"arg\":%llu}}",
                       sep, span_name(e), begin ? "B" : "E", ts, r,
                       static_cast<unsigned long long>(e.b));
        } else {
          std::fprintf(f,
                       "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                       "\"ts\":%.3f,\"pid\":1,\"tid\":%zu,\"args\":{"
                       "\"dom\":%u,\"a\":%llu,\"b\":%llu}}",
                       sep, event_kind_name(kind), ts, r, e.dom,
                       static_cast<unsigned long long>(e.a),
                       static_cast<unsigned long long>(e.b));
        }
        sep = ",\n";
        ++written;
      });
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  if (!ok) log_error("obs", "cannot write trace file", {{"path", path}});
  log_debug("obs", "trace written", {{"path", path}, {"events", written}});
  return ok;
}

std::string dump_recorder() {
  std::string out;
  for_each_event_line(
      [&out](const char* line, std::size_t len) { out.append(line, len); });
  return out;
}

void write_crash_report(int fd, int signal) noexcept {
  {
    char buf[96];
    char* p = buf;
    p = append_str(p, "=== digg crash report ===\nsignal=");
    p = append_dec(p, static_cast<std::uint64_t>(signal < 0 ? 0 : signal));
    p = append_str(p, " name=");
    p = append_str(p, signal_name(signal));
    p = append_str(p, "\n--- flight recorder ---\n");
    write_all(fd, buf, static_cast<std::size_t>(p - buf));
  }
  for_each_event_line(
      [fd](const char* line, std::size_t len) { write_all(fd, line, len); });
  write_all(fd, "--- metrics ---\n", 16);
  // Best effort past this line: try_snapshot never blocks, but rendering
  // allocates — fine for SIGUSR2 and for the watchdog, accepted-risk when
  // the process is already dying of SIGSEGV/SIGABRT.
  MetricsSnapshot snap;
  bool got = false;
  for (int attempt = 0; attempt < 3 && !got; ++attempt)
    got = Registry::global().try_snapshot(snap);
  if (got) {
    const std::string json = render_metrics_json(snap);
    write_all(fd, json.data(), json.size());
    write_all(fd, "\n", 1);
  } else {
    write_all(fd, "metrics=unavailable\n", 20);
  }
}

void install_crash_handlers(const std::string& path) {
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_signal_handler;
  sigemptyset(&sa.sa_mask);
  // Fatal signals reset to the default disposition before the handler runs,
  // so a second fault inside the handler kills the process instead of
  // recursing, and the post-report re-raise terminates normally.
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  sa.sa_flags = 0;  // SIGUSR2 stays installed: dump-and-continue
  ::sigaction(SIGUSR2, &sa, nullptr);
  g_handlers_installed.store(true, std::memory_order_release);
}

bool crash_handlers_installed() noexcept {
  return g_handlers_installed.load(std::memory_order_acquire);
}

const char* crash_report_path() noexcept {
  return crash_handlers_installed() ? g_crash_path : "";
}

}  // namespace digg::obs

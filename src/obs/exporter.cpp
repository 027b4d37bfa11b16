#include "src/obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "src/obs/env.h"
#include "src/obs/log.h"

namespace digg::obs {

namespace {

struct ExporterState {
  std::thread thread;
  int listen_fd = -1;
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> port{0};
};

// Leaked: the exporter thread may outlive main()'s statics until the atexit
// stop hook joins it, and the state must stay valid for that hook.
ExporterState* state() {
  static ExporterState* s = new ExporterState();
  return s;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out.append(buf);
}

// Diffs every counter against its previous value and publishes
// `<counter>.rate` gauges (events/second over the last tick). The ".rate"
// suffix is deliberate: it sanitizes to `_rate` for Prometheus but matches
// none of bench_check.py's gated suffixes, so instantaneous rates never trip
// the regression gate.
void publish_rate_gauges(std::map<std::string, std::uint64_t>& prev,
                         std::chrono::steady_clock::time_point& prev_t) {
  const MetricsSnapshot snap = Registry::global().snapshot();
  const auto now = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(now - prev_t).count();
  if (dt <= 0.0) return;
  for (const auto& [name, value] : snap.counters) {
    const auto it = prev.find(name);
    const std::uint64_t before = it == prev.end() ? 0 : it->second;
    const std::uint64_t delta = value >= before ? value - before : 0;
    Registry::global()
        .gauge(name + ".rate")
        .set(static_cast<double>(delta) / dt);
    prev[name] = value;
  }
  prev_t = now;
}

// How long the accept loop blocks in poll(), and so how long an accepted
// client gets to send its request: one tick of the loop.
constexpr int kPollMs = 200;

void serve_one(int fd) {
  // Wait at most one tick for the request: a client that connects and sends
  // nothing would otherwise hold the serial loop, and with it every later
  // scrape and the rate gauges, until it hangs up. Such a client is dropped.
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  if (::poll(&pfd, 1, kPollMs) <= 0) {
    Registry::global().counter("obs.exporter_dropped").inc();
    return;
  }
  // Read whatever request bytes arrived (we answer every path identically),
  // then write one HTTP/1.1 response and close. MSG_NOSIGNAL: a scraper
  // that hangs up early costs an EPIPE, not a SIGPIPE to the process.
  char req[1024];
  (void)::read(fd, req, sizeof(req));
  const std::string body = render_prometheus(Registry::global().snapshot());
  std::string resp = "HTTP/1.1 200 OK\r\n";
  resp.append(
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n");
  resp.append("Content-Length: ");
  append_uint(resp, body.size());
  resp.append("\r\nConnection: close\r\n\r\n");
  resp.append(body);
  std::size_t off = 0;
  while (off < resp.size()) {
    const ssize_t n =
        ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

void exporter_loop(unsigned tick_ms) {
  ExporterState* s = state();
  std::map<std::string, std::uint64_t> prev_counters;
  auto prev_t = std::chrono::steady_clock::now();
  auto next_tick = prev_t + std::chrono::milliseconds(tick_ms);
  while (!s->stop.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = s->listen_fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, kPollMs);
    if (rc > 0 && (pfd.revents & POLLIN) != 0) {
      const int fd = ::accept(s->listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        serve_one(fd);
        ::close(fd);
      }
    }
    if (std::chrono::steady_clock::now() >= next_tick) {
      publish_rate_gauges(prev_counters, prev_t);
      next_tick += std::chrono::milliseconds(tick_ms);
    }
  }
}

void stop_exporter_at_exit() { stop_exporter(); }

}  // namespace

std::uint16_t start_exporter(std::uint16_t port, unsigned tick_ms) {
  ExporterState* s = state();
  if (s->running.load(std::memory_order_acquire))
    return s->port.load(std::memory_order_acquire);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    log_error("obs", "exporter socket() failed",
              {{"errno", std::to_string(errno)}});
    return 0;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    log_error("obs", "exporter bind/listen failed",
              {{"port", std::to_string(port)},
               {"errno", std::to_string(errno)}});
    ::close(fd);
    return 0;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return 0;
  }
  const std::uint16_t bound_port = ntohs(bound.sin_port);

  s->listen_fd = fd;
  s->stop.store(false, std::memory_order_release);
  s->port.store(bound_port, std::memory_order_release);
  s->thread = std::thread(exporter_loop, tick_ms == 0 ? 1000 : tick_ms);
  s->running.store(true, std::memory_order_release);
  static const bool atexit_registered = [] {
    std::atexit(stop_exporter_at_exit);
    return true;
  }();
  (void)atexit_registered;
  log_info("obs", "metrics exporter listening",
           {{"port", std::to_string(bound_port)}});
  // CI smokes bind port 0 (ephemeral) and parse this exact line to find the
  // endpoint — keep the format in sync with scripts/ci.sh.
  std::printf("DIGG_METRICS_PORT_BOUND=%u\n", bound_port);
  std::fflush(stdout);
  return bound_port;
}

void stop_exporter() {
  ExporterState* s = state();
  if (!s->running.load(std::memory_order_acquire)) return;
  s->stop.store(true, std::memory_order_release);
  if (s->thread.joinable()) s->thread.join();
  if (s->listen_fd >= 0) ::close(s->listen_fd);
  s->listen_fd = -1;
  s->port.store(0, std::memory_order_release);
  s->running.store(false, std::memory_order_release);
}

std::uint16_t exporter_port() noexcept {
  return state()->port.load(std::memory_order_acquire);
}

std::optional<std::uint16_t> metrics_port_from_env() {
  constexpr std::uint64_t kOff = 65536;
  const std::uint64_t port = env_uint("DIGG_METRICS_PORT", 0, 65535, kOff);
  if (port == kOff) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

void maybe_start_exporter_from_env() {
  static const bool started = [] {
    const auto port = metrics_port_from_env();
    return port.has_value() && start_exporter(*port) != 0;
  }();
  (void)started;
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9')
    out.push_back('_');
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string pn = "digg_" + prometheus_name(name) + "_total";
    out.append("# TYPE ").append(pn).append(" counter\n");
    out.append(pn).push_back(' ');
    append_uint(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string pn = "digg_" + prometheus_name(name);
    out.append("# TYPE ").append(pn).append(" gauge\n");
    out.append(pn).push_back(' ');
    append_number(out, value);
    out.push_back('\n');
  }
  for (const MetricsSnapshot::Hist& h : snap.histograms) {
    const std::string pn = "digg_" + prometheus_name(h.name);
    out.append("# TYPE ").append(pn).append(" histogram\n");
    // The registry stores per-bucket counts; the exposition format wants
    // cumulative counts per le bound.
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cum += h.counts[i];
      out.append(pn).append("_bucket{le=\"");
      if (i < h.bounds.size()) {
        append_number(out, h.bounds[i]);
      } else {
        out.append("+Inf");
      }
      out.append("\"} ");
      append_uint(out, cum);
      out.push_back('\n');
    }
    out.append(pn).append("_sum ");
    append_number(out, h.sum);
    out.push_back('\n');
    out.append(pn).append("_count ");
    append_uint(out, h.count);
    out.push_back('\n');
  }
  return out;
}

}  // namespace digg::obs

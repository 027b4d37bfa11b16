#include "src/obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/obs/env.h"

namespace digg::obs {

namespace {

// Leaked singletons: the logger must stay usable from atexit handlers and
// destructors of other statics, so nothing here has a destructor to race.
struct LogState {
  std::mutex mutex;
  std::FILE* out = nullptr;  // resolved on first use
  std::function<void(std::string_view)> sink;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

LogState& state() {
  static LogState* s = new LogState();
  return *s;
}

constexpr int kLevelUnset = -1;

std::atomic<int> g_level{kLevelUnset};

std::FILE* resolve_out() {
  const char* path = std::getenv("DIGG_LOG_FILE");
  if (path && *path != '\0') {
    std::string error;
    if (std::FILE* f = open_log_file(path, &error)) return f;
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return stderr;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '=' || c == '"' || c == '\t') return true;
  }
  return false;
}

void append_string_value(std::string& out, std::string_view v) {
  if (!needs_quoting(v)) {
    out.append(v);
    return;
  }
  out.push_back('"');
  for (char c : v) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

void append_field_value(std::string& out, const Field& f) {
  char buf[32];
  switch (f.kind) {
    case Field::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(f.i));
      out.append(buf);
      break;
    case Field::Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(f.u));
      out.append(buf);
      break;
    case Field::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", f.d);
      out.append(buf);
      break;
    case Field::Kind::kBool:
      out.append(f.b ? "true" : "false");
      break;
    case Field::Kind::kString:
      append_string_value(out, f.s);
      break;
  }
}

}  // namespace

LogLevel parse_log_level(std::string_view name, LogLevel fallback) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return fallback;
}

LogLevel log_level_from_env() {
  return parse_log_level(env_choice("DIGG_LOG_LEVEL",
                                    {"trace", "debug", "info", "warn",
                                     "error", "off"},
                                    "info"));
}

LogLevel log_level() noexcept {
  int v = g_level.load(std::memory_order_relaxed);
  if (v == kLevelUnset) {
    // env_choice reports a bad DIGG_LOG_LEVEL through this logger; while
    // that warning is logged the level is the default, not a second read.
    static thread_local bool resolving = false;
    if (resolving) return LogLevel::kInfo;
    resolving = true;
    v = static_cast<int>(log_level_from_env());
    resolving = false;
    // Benign race: every loser computes the same env-derived value.
    g_level.store(v, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(v);
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string format_log_line(LogLevel level, std::string_view component,
                            std::string_view message,
                            std::initializer_list<Field> fields) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state().start)
          .count();
  std::string line;
  line.reserve(64 + message.size());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.3f", elapsed);
  line.append(buf);
  line.append(" level=");
  line.append(level_name(level));
  line.append(" comp=");
  append_string_value(line, component);
  line.append(" msg=");
  append_string_value(line, message);
  for (const Field& f : fields) {
    line.push_back(' ');
    line.append(f.key);
    line.push_back('=');
    append_field_value(line, f);
  }
  return line;
}

void log(LogLevel level, std::string_view component, std::string_view message,
         std::initializer_list<Field> fields) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;
  std::string line = format_log_line(level, component, message, fields);
  line.push_back('\n');
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.sink) {
    s.sink(line);
    return;
  }
  if (!s.out) s.out = resolve_out();
  std::fwrite(line.data(), 1, line.size(), s.out);
  std::fflush(s.out);
}

void set_log_sink(std::function<void(std::string_view)> sink) {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.sink = std::move(sink);
}

std::FILE* open_log_file(const char* path, std::string* error) {
  if (std::FILE* f = std::fopen(path, "a")) return f;
  if (error != nullptr) {
    *error = "obs: cannot open DIGG_LOG_FILE=";
    error->append(path);
    error->append(", logging to stderr");
  }
  return nullptr;
}

}  // namespace digg::obs

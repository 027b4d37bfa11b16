#pragma once
// Leveled structured logger: key=value lines on stderr (or a file), safe to
// call from any thread. The level is resolved once from DIGG_LOG_LEVEL
// (trace|debug|info|warn|error|off, default info) and can be overridden
// programmatically; DIGG_LOG_FILE redirects output to a path.
//
// Zero-perturbation contract (shared with metrics.h and trace.h): logging
// never feeds back into computation — a run produces bit-identical numeric
// results at any log level, including `off`.
//
// Library internals log at debug so default runs stay quiet; example and
// bench binaries log progress at info so DIGG_LOG_LEVEL=error silences them
// uniformly.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace digg::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Parses a level name ("trace".."error", "off"); unknown names fall back to
/// `fallback`. Case-sensitive, matching the documented spellings.
[[nodiscard]] LogLevel parse_log_level(std::string_view name,
                                       LogLevel fallback = LogLevel::kInfo);

/// DIGG_LOG_LEVEL through env_choice (env.h): one of the names above, else
/// info, with one warning for an empty or unknown value.
[[nodiscard]] LogLevel log_level_from_env();

/// Current threshold: messages below it are dropped. Resolution order:
/// programmatic override, log_level_from_env() (read once).
[[nodiscard]] LogLevel log_level() noexcept;

/// Overrides the threshold for subsequent calls (tests, embedding apps).
void set_log_level(LogLevel level) noexcept;

/// True when a message at `level` would be emitted — guard expensive field
/// computation with this.
[[nodiscard]] inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// One key=value pair. Values render as: integers/unsigned/doubles/bools
/// bare, strings quoted when they contain spaces, '=' or '"' (inner quotes
/// escaped as \").
struct Field {
  enum class Kind { kInt, kUint, kDouble, kBool, kString };

  Field(std::string_view k, long long v)
      : key(k), kind(Kind::kInt), i(v) {}
  Field(std::string_view k, long v)
      : key(k), kind(Kind::kInt), i(v) {}
  Field(std::string_view k, int v)
      : key(k), kind(Kind::kInt), i(v) {}
  Field(std::string_view k, unsigned long long v)
      : key(k), kind(Kind::kUint), u(v) {}
  Field(std::string_view k, unsigned long v)
      : key(k), kind(Kind::kUint), u(v) {}
  Field(std::string_view k, unsigned v)
      : key(k), kind(Kind::kUint), u(v) {}
  Field(std::string_view k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  Field(std::string_view k, bool v)
      : key(k), kind(Kind::kBool), b(v) {}
  Field(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  Field(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}

  std::string_view key;
  Kind kind;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;
};

/// Emits one line: `t=<sec since start> level=<lvl> comp=<component>
/// msg=<message> key=value ...`. Drops the call when `level` is below the
/// threshold. Thread-safe (one mutex around the write).
void log(LogLevel level, std::string_view component, std::string_view message,
         std::initializer_list<Field> fields = {});

inline void log_debug(std::string_view component, std::string_view message,
                      std::initializer_list<Field> fields = {}) {
  log(LogLevel::kDebug, component, message, fields);
}
inline void log_info(std::string_view component, std::string_view message,
                     std::initializer_list<Field> fields = {}) {
  log(LogLevel::kInfo, component, message, fields);
}
inline void log_warn(std::string_view component, std::string_view message,
                     std::initializer_list<Field> fields = {}) {
  log(LogLevel::kWarn, component, message, fields);
}
inline void log_error(std::string_view component, std::string_view message,
                      std::initializer_list<Field> fields = {}) {
  log(LogLevel::kError, component, message, fields);
}

/// Formats the line exactly as log() would write it (minus the trailing
/// newline) without emitting it — the formatting unit under test.
[[nodiscard]] std::string format_log_line(LogLevel level,
                                          std::string_view component,
                                          std::string_view message,
                                          std::initializer_list<Field> fields);

/// Redirects emitted lines (newline included) to `sink` instead of
/// stderr/DIGG_LOG_FILE; pass nullptr to restore the default. Test hook.
void set_log_sink(std::function<void(std::string_view)> sink);

/// Opens a DIGG_LOG_FILE target for append. Returns nullptr on failure and,
/// when `error` is non-null, fills it with the warning line the logger
/// prints in that case — the unit under test for the "unwritable log path
/// falls back to stderr, loudly" contract.
[[nodiscard]] std::FILE* open_log_file(const char* path,
                                       std::string* error = nullptr);

}  // namespace digg::obs

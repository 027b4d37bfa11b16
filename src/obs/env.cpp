#include "src/obs/env.h"

#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

#include "src/obs/log.h"

namespace digg::obs {

namespace {

// True the first time a bad value of `name` is seen. Leaked like the
// logger's state, so a read from an atexit path is safe.
bool first_warning(const char* name) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard lock(mu);
  return warned->insert(name).second;
}

}  // namespace

std::uint64_t env_uint(const char* name, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  // strtoull alone accepts leading space, a sign (negating "-1" to 2^64-1)
  // and trailing junk, so the digits are checked first.
  bool digits = *env != '\0';
  for (const char* c = env; *c != '\0'; ++c)
    digits = digits && *c >= '0' && *c <= '9';
  errno = 0;
  const unsigned long long v = digits ? std::strtoull(env, nullptr, 10) : 0;
  if (digits && errno == 0 && v >= lo && v <= hi) return v;
  if (first_warning(name))
    log_warn("obs", "ignoring malformed or out-of-range env value",
             {{"var", name},
              {"value", env},
              {"min", lo},
              {"max", hi},
              {"fallback", fallback}});
  return fallback;
}

std::string_view env_choice(const char* name,
                            std::initializer_list<std::string_view> allowed,
                            std::string_view fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  for (const std::string_view a : allowed)
    if (a == env) return a;
  if (first_warning(name)) {
    std::string choices;
    for (const std::string_view a : allowed)
      choices.append(choices.empty() ? "" : "|").append(a);
    log_warn("obs", "ignoring unknown env value",
             {{"var", name},
              {"value", env},
              {"allowed", choices},
              {"fallback", fallback}});
  }
  return fallback;
}

}  // namespace digg::obs

#pragma once
// Flight recorder: per-thread lock-free ring buffers of recent structured
// events (span begins and ends, votes applied, checkpoints, story
// retirements...), kept cheap enough to leave on in production — recording
// is a handful of relaxed atomic stores into a thread-owned slot, no locks,
// no allocation after the ring exists. The rings are the one record of what
// the process did: crash and stall dumps print them, and DIGG_TRACE=<path>
// exports them at exit as a Chrome trace. When something crashes, stalls,
// or is sent SIGUSR2, the dump shows what every thread was doing in the
// moments before — an open span is a begin with no end — per shard,
// alongside a metrics snapshot.
//
// Spans: obs::Span reads the clock once at construction and once at
// destruction and records each reading as a kSpanBegin / kSpanEnd event
// (a = the span's name pointer, b = its caller-defined arg). Given a
// histogram, it also observes the span's duration in µs from those same
// two readings, on normal exit only — a span unwound by an exception
// records its end but no latency. Span names are `<layer>.<name>` string
// literals ("runtime.chunk"): events keep the pointer, not a copy, and dumps
// print the name from signal handlers.
//
// Memory model (seqlock slots, single writer per ring):
//   - each thread that records owns exactly one ring (acquired lazily,
//     registered in a fixed lock-free table, never freed — a dead thread's
//     recent events stay dumpable);
//   - a slot's fields are all relaxed atomics; the writer brackets a write
//     with seq = 2k+1 (in progress) ... payload ... seq = 2k+2 (release),
//     where k is the event ordinal, then publishes head = k+1 (release);
//   - a reader (dump, watchdog, signal handler, trace export — any thread)
//     walks ordinals [head-N, head), accepts a slot only when seq reads
//     2k+2 before AND after the payload loads, and skips torn slots. No
//     reader ever blocks a writer; a dump racing live writers loses only
//     the events being overwritten mid-read.
//
// Zero-perturbation contract (shared with the rest of src/obs): recorded
// events and span timings are never read back into computation; numeric
// results are bit-identical with the recorder enabled (the default) or off.
//
// Crash reports: install_crash_handlers(path) arms SIGSEGV/SIGABRT/SIGUSR2.
// SIGUSR2 writes the report and the process continues (the live-inspection
// path); the fatal signals write the report, restore the default disposition
// and re-raise. The ring dump in the handler is async-signal-safe (atomics,
// stack buffers, write(2)); the appended metrics snapshot is best-effort —
// it try-locks the registry and allocates, which is safe for SIGUSR2 and
// accepted-risk for a process that is already crashing. DIGG_CRASH_REPORT=
// <path> installs the handlers automatically at first instrument creation.

#include <cstddef>
#include <cstdint>
#include <string>

namespace digg::obs {

class Histogram;

enum class EventKind : std::uint32_t {
  kMark = 0,            // free-form marker (tests, apps); a/b caller-defined
  kVoteApplied,         // dom=shard, a=story slot, b=votes applied so far
  kCheckpointRecorded,  // dom=shard, a=story slot, b=votes applied
  kCheckpointRestore,   // a=events applied after the restore
  kStoryRetired,        // dom=shard, a=story slot
  kSpanBegin,           // a=span name (static string), b=span arg
  kSpanEnd,             // a=span name (static string), b=span arg
};

/// Stable lowercase name ("vote_applied") used by dumps; "?" for unknown.
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// Records one event into the calling thread's ring. Wait-free after the
/// first call on a thread (which allocates and registers the ring). `dom`
/// is the event's domain — stream shard, pool lane — so dumps group by it.
void record_event(EventKind kind, std::uint32_t dom = 0, std::uint64_t a = 0,
                  std::uint64_t b = 0) noexcept;

/// Default on; DIGG_RECORDER=off|0 disables at startup, and tests can
/// toggle. Disabled recording is one relaxed load.
[[nodiscard]] bool recorder_enabled() noexcept;
void set_recorder_enabled(bool on) noexcept;
/// DIGG_RECORDER through env_choice (env.h): on|1 or off|0, else on, with
/// one warning for an empty or unknown value.
[[nodiscard]] bool recorder_enabled_from_env();

/// DIGG_RECORDER_EVENTS through env_uint (env.h): a value in [16, 65536],
/// else the default — 256, or 65536 when DIGG_TRACE is set, so a traced
/// run keeps its whole history. Its value when the first ring is made is
/// the events every thread ring retains.
[[nodiscard]] std::size_t recorder_events_from_env();

/// Human-readable dump of every ring's surviving events, oldest to newest
/// within a ring: `ring=<r> seq=<k> t_us=<t> kind=<name> dom=<d> a=<a>
/// b=<b>` lines; span events print `name=<span name>` in place of `a=`.
/// Torn slots (overwritten mid-read) are skipped.
[[nodiscard]] std::string dump_recorder();

/// Writes every ring's surviving events to `path` as Chrome trace JSON
/// (chrome://tracing / Perfetto "traceEvents"), tid = ring index, µs
/// timestamps to the ns. Span begins and ends become "B"/"E" events, every
/// other event an instant event. An end whose begin the ring overwrote is
/// dropped, and each wrapped ring logs one warning with its count of
/// overwritten events. DIGG_TRACE=<path> runs this at process exit.
/// Returns false (and logs an error) when `path` cannot be written.
bool write_chrome_trace(const std::string& path);

/// The signal-handler dump: ring events (async-signal-safe) plus the
/// best-effort metrics snapshot, written to `fd`. `signal` 0 means "not a
/// signal" (watchdog stall dumps reuse this writer).
void write_crash_report(int fd, int signal) noexcept;

/// Arms SIGSEGV/SIGABRT/SIGUSR2 to write a crash report to `path`.
/// Idempotent; the path is copied into static storage (signal handlers
/// cannot touch heap state). Repeated calls update the path.
void install_crash_handlers(const std::string& path);
[[nodiscard]] bool crash_handlers_installed() noexcept;
/// The installed crash-report path ("" when handlers are not installed).
/// The watchdog writes stall dumps beside it (`<path>.stall`).
[[nodiscard]] const char* crash_report_path() noexcept;

/// RAII span over the enclosing scope (see the file comment). A disabled
/// recorder makes it one relaxed load and records nothing — no events and
/// no latency observation.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = 0,
                Histogram* latency = nullptr) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t arg_;
  Histogram* latency_;
  std::uint64_t begin_ns_ = 0;
  int exceptions_ = 0;
  bool active_ = false;
};

}  // namespace digg::obs

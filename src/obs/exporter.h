#pragma once
// Live telemetry exporter: a background thread serving the metrics registry
// over a minimal HTTP endpoint in Prometheus text exposition format
// (version 0.0.4), plus periodic delta-computed rate gauges. Opt-in — no
// thread, no socket, no cost unless started.
//
//   DIGG_METRICS_PORT=<port>   start at first instrument creation, bound to
//                              127.0.0.1:<port> (0 = kernel-assigned)
//
// Every scrape renders a fresh Registry::global() snapshot: counters as
// `digg_<name>_total`, gauges as `digg_<name>`, histograms as the standard
// `_bucket{le="..."}` / `_sum` / `_count` triple with *cumulative* bucket
// counts (the registry stores per-bucket counts; the renderer accumulates).
// Dotted registry names sanitize to underscores.
//
// Rate gauges: once per tick (default 1s) the exporter diffs every counter
// against its previous value and publishes `<counter>.rate` gauges into the
// registry (votes/s, evictions/s...). Rates describe the last whole tick —
// an idle window reads 0. Registry gauges are never read back into
// computation, so the zero-perturbation contract holds with the exporter
// running.
//
// The server is deliberately minimal: serial accept loop, one response per
// connection, any request path answered with the full exposition document.
// An accepted client gets one 200 ms loop tick to send its request; one that
// sends nothing is closed unanswered and counted in obs.exporter_dropped, so
// it cannot stall later scrapes or the rate gauges. It exists for scraping
// and smoke tests, not as a general HTTP stack.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace digg::obs {

/// Starts the exporter on 127.0.0.1:`port` (0 = ephemeral). Returns the
/// bound port, or 0 on failure (logged at error). Idempotent while running:
/// returns the already-bound port. `tick_ms` is the rate-gauge cadence.
std::uint16_t start_exporter(std::uint16_t port, unsigned tick_ms = 1000);

/// Stops and joins the exporter thread. Safe when not running.
void stop_exporter();

/// Bound port while running, else 0.
[[nodiscard]] std::uint16_t exporter_port() noexcept;

/// DIGG_METRICS_PORT through env_uint (env.h): the port in [0, 65535], or
/// nullopt when unset or malformed — the exporter then stays off.
[[nodiscard]] std::optional<std::uint16_t> metrics_port_from_env();

/// Starts from DIGG_METRICS_PORT when set; called at first instrument
/// creation (metrics.cpp) so env opt-in needs no code change.
void maybe_start_exporter_from_env();

/// `name` mangled to a valid Prometheus metric name: every character
/// outside [a-zA-Z0-9_:] becomes '_', with a leading '_' prepended if the
/// first character is a digit. No "digg_" prefix — the renderer adds it.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Renders the full exposition document for a snapshot (the unit under
/// test; the HTTP thread serves exactly this string).
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap);

}  // namespace digg::obs

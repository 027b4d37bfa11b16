#pragma once
// The benchmark's metric table: every metric a run can print, with its
// unit. BENCHMARK.json lists the same names and units (test_bench.py checks
// that the two agree), and the result printer refuses to print a set that
// differs from the table.

#include <array>
#include <string_view>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

inline constexpr std::array<std::string_view, 3> kWorkloads = {
    "reproduce", "replay", "serve"};

// Printed by every --trace 0 run.
inline constexpr std::array<MetricDef, 5> kEndToEnd = {{
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"votes_per_s", "1/s"},
    {"ack_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
}};

// Printed by every --trace 1 run (the traced sweep covers all workloads).
inline constexpr std::array<MetricDef, 46> kPerLayer = {{
    // reproduce
    {"data.generate_s", "s"},
    {"dynamics.ns_per_tick", "ns"},
    {"graph.network_ms", "ms"},
    {"data.mmap_load_ms", "ms"},
    {"data.snapshot_mib", "MiB"},
    {"core.fig3a_ms", "ms"},
    {"core.fig3b_ms", "ms"},
    {"core.fig4_ms", "ms"},
    {"ml.fig5_ms", "ms"},
    {"runtime.pool_utilization", "ratio"},
    {"runtime.queue_wait_us_p50", "us"},
    {"runtime.dispatch_us", "us"},
    {"reproduce.pass_1t_s", "s"},
    {"reproduce.explained_frac", "ratio"},
    {"reproduce.trace_overhead_frac", "ratio"},
    // replay
    {"stream.init_ms", "ms"},
    {"stream.run_ms", "ms"},
    {"stream.checkpoint_save_ms", "ms"},
    {"stream.checkpoint_restore_ms", "ms"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.state_bytes", "bytes"},
    {"stream.vis_rebuilds", "count"},
    {"stream.vis_evictions", "count"},
    {"stream.bayes_ns_per_vote", "ns"},
    {"digg.union_ns_per_op", "ns"},
    {"digg.unions", "count"},
    {"ml.flat_tree_ns_per_row", "ns"},
    {"stream.run_2t_ms", "ms"},
    {"replay.explained_frac", "ratio"},
    {"replay.trace_overhead_frac", "ratio"},
    // serve
    {"serve.decode_ns_per_frame", "ns"},
    {"serve.ring_ns_per_entry", "ns"},
    {"stream.live_apply_ns", "ns"},
    {"serve.backpressure", "count"},
    {"serve.bottleneck_share", "ratio"},
    {"stream.query_us", "us"},
    {"serve.ingest_us_p50", "us"},
    {"serve.ingest_us_p99", "us"},
    {"serve.query_us_p50", "us"},
    {"serve.query_us_p99", "us"},
    {"serve.paced_ack_p50_ms", "ms"},
    {"serve.ack_p99_ms", "ms"},
    {"serve.ack_samples", "count"},
    {"serve.late_ms_p99", "ms"},
    {"serve.explained_frac", "ratio"},
    {"serve.trace_overhead_frac", "ratio"},
}};

}  // namespace perfbench

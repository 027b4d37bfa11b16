#!/usr/bin/env bash
# Refreshes the per-PR perf trajectory:
#   BENCH_parallel.json   perf_micro suite with its --json reporter (metrics
#                         snapshot + wall clock; see bench/perf_micro.cpp)
#   BENCH_corpus_io.json  perf_corpus_io (CSV load vs snapshot save/load,
#                         plus the million-user out-of-core leg: streamed
#                         generation RSS, validated snapshot load, replay;
#                         exits nonzero if the snapshot-load 5x bar is
#                         missed; CORPUS_IO_ARGS can downscale, e.g.
#                         CORPUS_IO_ARGS='--large-users 200000')
#   BENCH_stream.json     perf_stream (vote-stream replay throughput and
#                         checkpoint save/restore latency)
#   BENCH_visibility.json perf_visibility (hybrid-set fan-union and
#                         membership ns/op, replay state bytes)
#   BENCH_serve.json      perf_serve (sustained multi-client live ingest
#                         over loopback TCP + online query tail latency;
#                         gates serve.ingest_votes_per_sec and
#                         serve.query_us_p99)
#
# Usage: scripts/bench_snapshot.sh [extra perf_micro args...]
#   BUILD_DIR       build directory (default build-release)
#   JOBS            build parallelism (default nproc)
#   BENCH_MIN_TIME  --benchmark_min_time seconds (default 0.05; benchmark
#                   1.7.x takes a bare float)
#   SERVE_VOTES     perf_serve total vote volume (default 2000000; the
#                   nightly perf job raises it)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-release}
JOBS=${JOBS:-$(nproc)}
BENCH_MIN_TIME=${BENCH_MIN_TIME:-0.05}
SERVE_VOTES=${SERVE_VOTES:-2000000}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS" --target perf_micro \
  --target perf_corpus_io --target perf_stream --target perf_visibility \
  --target perf_serve

"$BUILD_DIR/bench/perf_micro" \
  --json BENCH_parallel.json \
  --benchmark_min_time="$BENCH_MIN_TIME" \
  "$@"
echo "wrote $(pwd)/BENCH_parallel.json"

# shellcheck disable=SC2086  # CORPUS_IO_ARGS is deliberately word-split
"$BUILD_DIR/bench/perf_corpus_io" --json BENCH_corpus_io.json \
  ${CORPUS_IO_ARGS:-}
echo "wrote $(pwd)/BENCH_corpus_io.json"

"$BUILD_DIR/bench/perf_stream" --json BENCH_stream.json
echo "wrote $(pwd)/BENCH_stream.json"

"$BUILD_DIR/bench/perf_visibility" --json BENCH_visibility.json
echo "wrote $(pwd)/BENCH_visibility.json"

"$BUILD_DIR/bench/perf_serve" --json BENCH_serve.json --votes "$SERVE_VOTES"
echo "wrote $(pwd)/BENCH_serve.json"

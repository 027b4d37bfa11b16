#!/usr/bin/env bash
# Tier-1 verification matrix, one configuration per invocation (or 'all'):
#   release  Release build + full ctest suite (the tier-1 gate)
#   asan     Debug build, -DDIGG_SANITIZE=address,undefined and
#            -D_GLIBCXX_ASSERTIONS (an out-of-range operator[] or a bad
#            iterator aborts instead of reading past a buffer) + full suite
#   tsan     RelWithDebInfo build, -DDIGG_SANITIZE=thread + the tests that
#            exercise the thread pool (label filter TSAN_LABELS below —
#            TSan slows single-threaded statistics tests ~10x for no
#            additional race coverage)
#   large    Release build + the out-of-core smoke: stream-generate a
#            large corpus to a snapshot, load it (mapped, verified and
#            validated), and replay it through the stream engine, both
#            straight and cut at half the stream, checkpointed, restored
#            and finished — the bench exits 1 unless the two agree and the
#            straight run's feature rows equal core::extract_features on
#            the mapped corpus; it also prints the restore-to-first-vote
#            time (fresh engine + restore + one event), which no gate reads
#            (perf_corpus_io's large leg, downscaled via
#            LARGE_USERS/LARGE_STORIES so the smoke stays minutes-cheap;
#            the nightly perf job runs the full million)
#   obs      Release build + two telemetry smokes. Exporter: run perf_stream
#            with DIGG_METRICS_PORT=0 (ephemeral bind, port parsed from the
#            DIGG_METRICS_PORT_BOUND= stdout line) and --serve-ms holding
#            the process alive, curl the endpoint, and verify the
#            Prometheus text exposition (TYPE lines, histogram buckets,
#            ingest counter). Trace: run figures --figure fig3a_influence
#            --smoke at DIGG_THREADS=4 with DIGG_TRACE set, and check that
#            the exported Chrome trace parses, that every tid's B/E span
#            events balance, that data.generate_corpus and runtime.chunk
#            spans are present, and that no ring wrapped (no wrap warning
#            on stderr)
#   serve    Release build + the ingest-server smoke: start serve_digg on
#            an ephemeral port (parsed from DIGG_SERVE_PORT_BOUND=) with
#            background checkpointing on, hit it with a client that
#            pipelines 20,000 unknown-story queries and hangs up unread
#            (the server must survive it), drive a few thousand votes over
#            several connections with serve_load --smoke (which also
#            verifies every reply against a local engine and demands v10
#            predictions), SIGTERM the server, and assert a clean drain
#            plus a restorable checkpoint (serve_digg --inspect); then
#            tear the checkpoint (its first 100 bytes in a new file) and
#            require --inspect to refuse it: exit status 1 and
#            "truncated" on stderr
#   scenarios
#            Release build + the scenario-engine smoke: run
#            figures --figure fig7_model_prediction --smoke (downscaled
#            corpora), which generates every named scenario, races the
#            Bayes fit against the C4.5 tree, and fails unless every
#            model id in dynamics::kModelIds is covered by the matrix;
#            then scripts/figure_digests.sh (all 16 full-size figures at
#            seed 42, built in $RELEASE_DIR), which fails unless every
#            figure's stdout is identical at DIGG_THREADS=1 and =4 and
#            the all-figures run equals the per-figure runs concatenated
#   reach    scripts/reachability.sh: builds figures, the examples, the
#            bench/perf_* programs and perfbench at -O0 with
#            -ffunction-sections, links them with --gc-sections, and fails
#            when a src/ library function is kept by none of them and is
#            not in scripts/reachability_allow.txt (or when an allow-list
#            line is stale); it also lists the functions only bench/perf_*
#            or perfbench keep, as information
#   all      every configuration above, failing fast on the first broken one
#
# The GitHub Actions matrix (.github/workflows/ci.yml) runs one mode per
# job via this script, so CI legs are reproducible locally with the same
# command CI uses.
#
# Usage: scripts/ci.sh [release|asan|tsan|large|obs|serve|scenarios|reach|all] [ctest args...]
#   RELEASE_DIR / ASAN_DIR / TSAN_DIR / REACH_DIR
#                build dirs (default build-release, build-asan, build-tsan,
#                build-reach)
#   JOBS         parallelism (default nproc)
#   WERROR       ON to add -Werror (CI sets this; local default OFF)
#   TSAN_LABELS  ctest -L regex for the tsan leg
#   LARGE_USERS / LARGE_STORIES
#                large-corpus smoke scale (default 200000 users, 200
#                stories — big enough to leave RAM-cached territory, small
#                enough for a PR gate)
set -euo pipefail
cd "$(dirname "$0")/.."

RELEASE_DIR=${RELEASE_DIR:-build-release}
ASAN_DIR=${ASAN_DIR:-build-asan}
TSAN_DIR=${TSAN_DIR:-build-tsan}
REACH_DIR=${REACH_DIR:-build-reach}
JOBS=${JOBS:-$(nproc)}
WERROR=${WERROR:-OFF}
TSAN_LABELS=${TSAN_LABELS:-'^(runtime_test|stream_test|stream_bayes_test|obs_test|digg_hybrid_set_test|serve_test|simd_kernel_test|data_synthetic_test|data_snapshot_test|dynamics_model_test|dynamics_vote_model_test|core_prefix_visibility_test|core_experiment_test)$'}
LARGE_USERS=${LARGE_USERS:-200000}
LARGE_STORIES=${LARGE_STORIES:-200}

MODE=all
case "${1:-}" in
  release|asan|tsan|large|obs|serve|scenarios|reach|all)
    MODE=$1
    shift
    ;;
esac
CTEST_ARGS=("$@")

# wait_for_line <pid> <log> <prefix>: polls <log> until a line starting with
# <prefix> appears (echoes the remainder) or <pid> exits (fails). Both the
# obs and serve smokes bind ephemeral ports and advertise them this way.
wait_for_line() {
  local pid=$1 log=$2 prefix=$3 value=""
  for _ in $(seq 1 120); do
    value=$(sed -n "s/^${prefix}//p" "$log" | head -n1)
    if [[ -n $value ]]; then
      echo "$value"
      return 0
    fi
    kill -0 "$pid" 2>/dev/null || {
      echo "smoke: process exited before printing ${prefix}" >&2
      cat "$log" >&2
      return 1
    }
    sleep 0.5
  done
  echo "smoke: timed out waiting for ${prefix}" >&2
  cat "$log" >&2
  return 1
}

# run_config <dir> <label> [cmake args...] [-- ctest args...]
run_config() {
  local dir=$1 label=$2
  shift 2
  local cmake_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    cmake_args+=("$1")
    shift
  done
  [[ $# -gt 0 ]] && shift  # drop the --
  echo "== [$label] configure + build ($dir) =="
  cmake -B "$dir" -S . -DDIGG_WERROR="$WERROR" "${cmake_args[@]}"
  cmake --build "$dir" -j "$JOBS"
  echo "== [$label] ctest =="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@" "${CTEST_ARGS[@]}")
}

if [[ $MODE == release || $MODE == all ]]; then
  run_config "$RELEASE_DIR" "Release" -DCMAKE_BUILD_TYPE=Release
fi
if [[ $MODE == asan || $MODE == all ]]; then
  run_config "$ASAN_DIR" "Debug+ASan/UBSan" -DCMAKE_BUILD_TYPE=Debug \
    -DDIGG_SANITIZE=address,undefined -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
fi
if [[ $MODE == tsan || $MODE == all ]]; then
  run_config "$TSAN_DIR" "TSan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDIGG_SANITIZE=thread -- -L "$TSAN_LABELS"
fi
if [[ $MODE == obs || $MODE == all ]]; then
  echo "== [exporter smoke] configure + build ($RELEASE_DIR) =="
  cmake -B "$RELEASE_DIR" -S . -DDIGG_WERROR="$WERROR" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$RELEASE_DIR" -j "$JOBS" --target perf_stream figures
  echo "== [exporter smoke] serve + scrape =="
  OBS_LOG=$(mktemp)
  DIGG_METRICS_PORT=0 "$RELEASE_DIR"/bench/perf_stream \
    --serve-ms 60000 >"$OBS_LOG" 2>&1 &
  OBS_PID=$!
  # shellcheck disable=SC2064  # expand $OBS_PID now, not at trap time
  trap "kill $OBS_PID 2>/dev/null || true; rm -f $OBS_LOG" EXIT
  # Ephemeral bind: the exporter prints the port it actually got.
  OBS_PORT=$(wait_for_line "$OBS_PID" "$OBS_LOG" "DIGG_METRICS_PORT_BOUND=")
  # The exporter answers as soon as the corpus generates, well before the
  # replay populates histograms — keep scraping until the ingest counter
  # shows up, not merely until some exposition arrives.
  scrape=""
  for _ in $(seq 1 60); do
    if scrape=$(curl -sf "http://127.0.0.1:$OBS_PORT/metrics"); then
      grep -qF 'digg_stream_votes_ingested_total' <<<"$scrape" && break
    fi
    kill -0 "$OBS_PID" 2>/dev/null || {
      echo "exporter smoke: perf_stream exited early" >&2; exit 1; }
    sleep 1
  done
  kill "$OBS_PID" 2>/dev/null || true
  wait "$OBS_PID" 2>/dev/null || true
  trap - EXIT
  for needle in \
    '# TYPE digg_' \
    '_bucket{le="' \
    'digg_stream_votes_ingested_total'; do
    if ! grep -qF "$needle" <<<"$scrape"; then
      echo "exporter smoke: exposition is missing '$needle'" >&2
      printf '%s\n' "$scrape" | head -40 >&2
      exit 1
    fi
  done
  rm -f "$OBS_LOG"
  echo "exporter smoke: Prometheus exposition ok ($(wc -l <<<"$scrape") lines)"

  echo "== [trace smoke] figures --figure fig3a_influence --smoke with DIGG_TRACE =="
  TRACE_TMP=$(mktemp -d)
  # shellcheck disable=SC2064  # expand now, not at trap time
  trap "rm -rf $TRACE_TMP" EXIT
  DIGG_THREADS=4 DIGG_TRACE="$TRACE_TMP/trace.json" \
    "$RELEASE_DIR"/bench/figures --figure fig3a_influence --smoke \
    >"$TRACE_TMP/stdout" 2>"$TRACE_TMP/stderr"
  if grep -F 'trace ring wrapped' "$TRACE_TMP/stderr" >&2; then
    echo "trace smoke: a recorder ring wrapped; the trace is incomplete" >&2
    exit 1
  fi
  python3 -c '
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
stacks = collections.defaultdict(list)
names = set()
for e in events:
    if e["ph"] == "B":
        stacks[e["tid"]].append(e["name"])
        names.add(e["name"])
    elif e["ph"] == "E":
        stack = stacks[e["tid"]]
        assert stack and stack.pop() == e["name"], f"unmatched E: {e}"
open_spans = {tid: s for tid, s in stacks.items() if s}
assert not open_spans, f"unclosed spans: {open_spans}"
for want in ("data.generate_corpus", "runtime.chunk"):
    assert want in names, f"no {want} span in the trace"
print(f"trace smoke: {len(events)} events, B/E balanced on {len(stacks)} tids")
' "$TRACE_TMP/trace.json"
  rm -rf "$TRACE_TMP"
  trap - EXIT
fi

if [[ $MODE == serve || $MODE == all ]]; then
  echo "== [serve smoke] configure + build ($RELEASE_DIR) =="
  cmake -B "$RELEASE_DIR" -S . -DDIGG_WERROR="$WERROR" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$RELEASE_DIR" -j "$JOBS" --target serve_digg serve_load
  echo "== [serve smoke] ingest + query + drain + restore =="
  SERVE_TMP=$(mktemp -d)
  SERVE_LOG="$SERVE_TMP/serve.log"
  SERVE_CKPT="$SERVE_TMP/serve.ckpt"
  DIGG_CHECKPOINT_MS=500 "$RELEASE_DIR"/examples/serve_digg --smoke \
    --checkpoint "$SERVE_CKPT" >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  # shellcheck disable=SC2064  # expand now, not at trap time
  trap "kill $SERVE_PID 2>/dev/null || true; rm -rf $SERVE_TMP" EXIT
  SERVE_PORT=$(wait_for_line "$SERVE_PID" "$SERVE_LOG" "DIGG_SERVE_PORT_BOUND=")
  # A client that pipelines requests and closes without reading the
  # replies: each reply write to it must fail with EPIPE, not SIGPIPE.
  python3 - "$SERVE_PORT" <<'PY'
import socket
import struct
import sys

# kQueryState (type 3) for a story id never submitted: body = type + u32.
frame = struct.pack("<IBI", 5, 3, 424242)
with socket.create_connection(("127.0.0.1", int(sys.argv[1]))) as s:
    s.sendall(frame * 20000)
PY
  sleep 0.2
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "serve smoke: serve_digg died after a client hung up unread" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  # Drive the corpus at the server over several connections; --smoke also
  # verifies every state/prediction reply against a local engine.
  "$RELEASE_DIR"/examples/serve_load --smoke --port "$SERVE_PORT"
  # SIGTERM -> graceful drain -> final checkpoint, and the process exits 0.
  kill -TERM "$SERVE_PID"
  if ! wait "$SERVE_PID"; then
    echo "serve smoke: serve_digg exited non-zero after SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  if ! grep -q '^drained: ' "$SERVE_LOG"; then
    echo "serve smoke: no drain line in the server log" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  # The drain checkpoint must be complete and restorable.
  "$RELEASE_DIR"/examples/serve_digg --inspect "$SERVE_CKPT" \
    | grep -q '^checkpoint ok: ' || {
      echo "serve smoke: drain checkpoint failed inspection" >&2
      exit 1
    }
  # A torn checkpoint must be refused with a message, not abort.
  head -c 100 "$SERVE_CKPT" >"$SERVE_TMP/torn.ckpt"
  TORN_STATUS=0
  "$RELEASE_DIR"/examples/serve_digg --inspect "$SERVE_TMP/torn.ckpt" \
    >/dev/null 2>"$SERVE_TMP/torn.err" || TORN_STATUS=$?
  if [[ $TORN_STATUS -ne 1 ]] || ! grep -q 'truncated' "$SERVE_TMP/torn.err"; then
    echo "serve smoke: torn checkpoint not refused (exit $TORN_STATUS)" >&2
    cat "$SERVE_TMP/torn.err" >&2
    exit 1
  fi
  trap - EXIT
  rm -rf "$SERVE_TMP"
  echo "serve smoke: ingest, verify, drain, and restore all green"
fi

if [[ $MODE == scenarios || $MODE == all ]]; then
  echo "== [scenario smoke] configure + build ($RELEASE_DIR) =="
  cmake -B "$RELEASE_DIR" -S . -DDIGG_WERROR="$WERROR" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$RELEASE_DIR" -j "$JOBS" --target figures
  echo "== [scenario smoke] every scenario x both predictors =="
  "$RELEASE_DIR"/bench/figures --figure fig7_model_prediction --smoke
  echo "== [scenario smoke] figure stdout invariant across thread counts =="
  BUILD_DIR="$RELEASE_DIR" JOBS="$JOBS" scripts/figure_digests.sh 42
fi

if [[ $MODE == large || $MODE == all ]]; then
  echo "== [large-corpus smoke] configure + build ($RELEASE_DIR) =="
  cmake -B "$RELEASE_DIR" -S . -DDIGG_WERROR="$WERROR" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$RELEASE_DIR" -j "$JOBS" --target perf_corpus_io
  echo "== [large-corpus smoke] generate -> load -> replay -> kill/resume =="
  "$RELEASE_DIR"/bench/perf_corpus_io \
    --large-users "$LARGE_USERS" --large-stories "$LARGE_STORIES"
fi

if [[ $MODE == reach || $MODE == all ]]; then
  echo "== [reach] every library function reached by a non-test binary =="
  REACH_DIR="$REACH_DIR" JOBS="$JOBS" scripts/reachability.sh
fi

echo "ci.sh: $MODE green"

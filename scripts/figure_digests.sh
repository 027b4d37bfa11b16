#!/usr/bin/env bash
# Byte-identity check for the figures: builds the figures driver in
# $BUILD_DIR (default build/, the tier-1 build tree), runs every figure at
# the given seed under DIGG_THREADS=1 and DIGG_THREADS=4, and prints one
# line per run:
#
#   <figure> <DIGG_THREADS> <sha256 of `figures --figure <figure> <seed>`>
#
# A change that must leave every figure untouched (a refactor, a deletion)
# passes when this output is identical before and after it; --against does
# that comparison in one command:
#
#   scripts/figure_digests.sh --against HEAD~1 42
#
# exports the ref with `git archive` into a temporary directory, builds its
# figures driver there in its own build tree (same JOBS, same build type as
# $BUILD_DIR), digests both sides, prints only the figure/thread lines that
# differ, as
#
#   <figure> <DIGG_THREADS> <sha256 at the ref> <sha256 here>
#
# and exits 1 if there is any; otherwise it prints one line saying all
# digests match.
#
# Either way the script exits 1, after printing, when a figure run exits
# non-zero, when a figure's two thread counts disagree (stdout is
# thread-count invariant by contract, and it names every such figure), or
# when the all-figures run (no --figure) is not the per-figure outputs
# concatenated in FIGURES order: that run shares one corpus and one random
# stream among the corpus figures, so it guards their isolation from each
# other. With --against these checks run on both sides.
#
# Usage: scripts/figure_digests.sh [seed]                  (default seed 42)
#        scripts/figure_digests.sh --against <git-ref> [seed]
#   BUILD_DIR   build tree to configure, build and run (default build); an
#               existing tree keeps its build type
#   JOBS        build parallelism (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

AGAINST=
if [[ ${1:-} == --against ]]; then
  if [[ $# -lt 2 ]]; then
    echo "usage: $0 --against <git-ref> [seed]" >&2
    exit 2
  fi
  AGAINST=$(git rev-parse --verify "$2^{commit}")
  shift 2
fi
SEED=${1:-42}
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
# The driver's print order (kFigures in bench/figures.cpp).
FIGURES=(fig1_vote_timeseries fig1_novelty_fit fig2a_vote_histogram
         fig2b_user_activity fig3a_influence fig3b_cascades
         fig4_innetwork_vs_final fig5_decision_tree fig5_roc
         fig6_friends_fans text_activity_skew fig7_model_prediction
         ablation_attention ablation_epidemic ablation_mechanisms
         ablation_modularity)

OUT=$(mktemp -d)
# shellcheck disable=SC2064  # expand $OUT now, not at trap time
trap "rm -rf $OUT" EXIT
failed=()

# digests <figures binary> <label>: runs every figure at both thread counts,
# writes "<figure> <threads> <sha256>" lines to $OUT/<label>.txt, and adds
# that side's self-check failures to `failed`.
digests() {
  local figures=$1 label=$2 dir="$OUT/$2" threads fig digest
  mkdir -p "$dir"
  for threads in 1 4; do
    for fig in "${FIGURES[@]}"; do
      DIGG_THREADS=$threads "$figures" --figure "$fig" "$SEED" \
        >"$dir/$fig.$threads" \
        || failed+=("$label, DIGG_THREADS=$threads: $fig exited non-zero")
    done
    DIGG_THREADS=$threads "$figures" "$SEED" >"$dir/all.$threads" \
      || failed+=("$label, DIGG_THREADS=$threads: all-figures run exited non-zero")
    for fig in "${FIGURES[@]}"; do cat "$dir/$fig.$threads"; done \
      | cmp -s - "$dir/all.$threads" \
      || failed+=("$label, DIGG_THREADS=$threads: all-figures run != per-figure runs")
  done
  for fig in "${FIGURES[@]}"; do
    for threads in 1 4; do
      digest=$(sha256sum <"$dir/$fig.$threads")
      echo "$fig $threads ${digest%% *}" >>"$OUT/$label.txt"
    done
    cmp -s "$dir/$fig.1" "$dir/$fig.4" \
      || failed+=("$label, $fig: stdout differs between DIGG_THREADS=1 and =4")
  done
}

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target figures >/dev/null
digests "$BUILD_DIR/bench/figures" here

if [[ -z $AGAINST ]]; then
  cat "$OUT/here.txt"
else
  mkdir "$OUT/ref"
  git archive "$AGAINST" | tar -x -C "$OUT/ref"
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$BUILD_DIR/CMakeCache.txt")
  cmake -B "$OUT/ref/build" -S "$OUT/ref" \
    -DCMAKE_BUILD_TYPE="$build_type" >/dev/null
  cmake --build "$OUT/ref/build" -j "$JOBS" --target figures >/dev/null
  digests "$OUT/ref/build/bench/figures" ref
  differing=$(paste -d ' ' "$OUT/ref.txt" "$OUT/here.txt" \
    | awk '$3 != $6 { print $1, $2, $3, $6 }')
  if [[ -n $differing ]]; then
    echo "$differing"
    failed+=("$(grep -c . <<<"$differing") figure/thread digests differ from ${AGAINST:0:12}")
  else
    echo "figure_digests: all ${#FIGURES[@]} figures at DIGG_THREADS 1 and 4" \
      "match ${AGAINST:0:12} (seed $SEED)"
  fi
fi

if [[ ${#failed[@]} -gt 0 ]]; then
  printf 'figure_digests: %s\n' "${failed[@]}" >&2
  exit 1
fi

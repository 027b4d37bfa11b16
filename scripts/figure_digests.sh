#!/usr/bin/env bash
# Byte-identity check for the figures: builds the figures driver in
# $BUILD_DIR (default build/, the tier-1 build tree), runs every figure at
# the given seed under DIGG_THREADS=1 and DIGG_THREADS=4, and prints one
# line per run:
#
#   <figure> <DIGG_THREADS> <sha256 of `figures --figure <figure> <seed>`>
#
# A change that must leave every figure untouched (a refactor, a deletion)
# passes when this output is identical before and after it, e.g.
#
#   scripts/figure_digests.sh 42 >after.txt   # in each checkout
#   diff before.txt after.txt
#
# The script exits 1, after printing all lines, when a figure's two thread
# counts disagree (stdout is thread-count invariant by contract, and it
# names every such figure), or when the all-figures run (no --figure) is not
# the per-figure outputs concatenated in FIGURES order: that run shares one
# corpus and one random stream among the corpus figures, so it guards their
# isolation from each other.
#
# Usage: scripts/figure_digests.sh [seed]   (default seed 42)
#   BUILD_DIR   build tree to configure, build and run (default build); an
#               existing tree keeps its build type
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=${1:-42}
BUILD_DIR=${BUILD_DIR:-build}
# The driver's print order (kFigures in bench/figures.cpp).
FIGURES=(fig1_vote_timeseries fig1_novelty_fit fig2a_vote_histogram
         fig2b_user_activity fig3a_influence fig3b_cascades
         fig4_innetwork_vs_final fig5_decision_tree fig5_roc
         fig6_friends_fans text_activity_skew fig7_model_prediction
         ablation_attention ablation_epidemic ablation_mechanisms
         ablation_modularity)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target figures >/dev/null

OUT=$(mktemp -d)
# shellcheck disable=SC2064  # expand $OUT now, not at trap time
trap "rm -rf $OUT" EXIT
failed=()
for threads in 1 4; do
  for fig in "${FIGURES[@]}"; do
    DIGG_THREADS=$threads "$BUILD_DIR/bench/figures" --figure "$fig" "$SEED" \
      >"$OUT/$fig.$threads"
  done
  DIGG_THREADS=$threads "$BUILD_DIR/bench/figures" "$SEED" >"$OUT/all.$threads"
  for fig in "${FIGURES[@]}"; do cat "$OUT/$fig.$threads"; done \
    | cmp -s - "$OUT/all.$threads" \
    || failed+=("DIGG_THREADS=$threads: all-figures run != per-figure runs")
done

for fig in "${FIGURES[@]}"; do
  for threads in 1 4; do
    digest=$(sha256sum <"$OUT/$fig.$threads")
    echo "$fig $threads ${digest%% *}"
  done
  cmp -s "$OUT/$fig.1" "$OUT/$fig.4" \
    || failed+=("$fig: stdout differs between DIGG_THREADS=1 and =4")
done

if [[ ${#failed[@]} -gt 0 ]]; then
  printf 'figure_digests: %s\n' "${failed[@]}" >&2
  exit 1
fi

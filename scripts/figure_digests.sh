#!/usr/bin/env bash
# Byte-identity check for the figure benches: builds them in $BUILD_DIR
# (default build/, the tier-1 build tree), runs each at the given seed under
# DIGG_THREADS=1 and DIGG_THREADS=4, and prints one line per run:
#
#   <bench> <DIGG_THREADS> <sha256 of stdout>
#
# A change that must leave every figure untouched (a refactor, a deletion)
# passes when this output is identical before and after it, e.g.
#
#   scripts/figure_digests.sh 42 >after.txt   # in each checkout
#   diff before.txt after.txt
#
# The two thread counts of one bench must also agree: stdout is
# thread-count invariant by contract. The script exits 1, naming every
# bench whose two digests differ, after printing all lines.
#
# Usage: scripts/figure_digests.sh [seed]   (default seed 42)
#   BUILD_DIR   build tree to configure, build and run (default build); an
#               existing tree keeps its build type
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=${1:-42}
BUILD_DIR=${BUILD_DIR:-build}
BENCHES=(fig3a_influence fig3b_cascades fig4_innetwork_vs_final
         fig5_decision_tree fig5_roc fig7_model_prediction
         ablation_attention)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target "${BENCHES[@]}" >/dev/null

mismatched=()
declare -A digests
for bench in "${BENCHES[@]}"; do
  for threads in 1 4; do
    digest=$(DIGG_THREADS=$threads "$BUILD_DIR/bench/$bench" "$SEED" \
      | sha256sum)
    digests[$threads]=${digest%% *}
    echo "$bench $threads ${digests[$threads]}"
  done
  [[ ${digests[1]} == "${digests[4]}" ]] || mismatched+=("$bench")
done

if [[ ${#mismatched[@]} -gt 0 ]]; then
  echo "figure_digests: stdout differs between DIGG_THREADS=1 and =4:" \
    "${mismatched[*]}" >&2
  exit 1
fi

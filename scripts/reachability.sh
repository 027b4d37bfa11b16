#!/usr/bin/env bash
# Library reachability check: every out-of-line function of the src/
# archives must be kept by some non-test binary, or be named in
# scripts/reachability_allow.txt with a reason.
#
# It builds the non-test binaries at -O0 -ffunction-sections
# -fdata-sections and links them with -Wl,--gc-sections, so nothing is
# inlined away and the linker drops every function section that no kept
# code references. The binaries are every executable of bench/ (figures and
# the bench/perf_* programs) and examples/, plus perfbench, which is
# configured from perfbench/ with these flags only. A function is reached
# when some binary still defines it. Only `T` symbols (nm) of the src/
# archives are counted; header-only code is not.
#
# The script fails (exit 1) when
#   - a function is reached by no binary and the allow-list does not name
#     it (it prints each such function), or
#   - an allow-list line is stale: it names no function that exists and is
#     unreached.
# It also prints, as information only, the functions that only
# bench/perf_* or perfbench keep.
#
# scripts/reachability_allow.txt: one entry per line, `<function>  # <reason>`,
# where <function> is the demangled name without ABI tags, with or without
# its parameter list (without one, it covers every overload). Blank lines
# and lines that start with `#` are ignored. A line without a reason is an
# error.
#
# Usage: scripts/reachability.sh
#   REACH_DIR   build tree (default build-reach; perfbench builds in
#               $REACH_DIR/perfbench)
#   JOBS        parallelism (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

REACH_DIR=${REACH_DIR:-build-reach}
JOBS=${JOBS:-$(nproc)}
ALLOW=scripts/reachability_allow.txt

# Debug with its flags replaced: no -g (smaller objects, faster links).
FLAGS=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")

echo "== [reach] configure + build ($REACH_DIR) =="
cmake -B "$REACH_DIR" -S . "${FLAGS[@]}" >/dev/null
# Each subdirectory's own `all` builds its binaries and what they link,
# and none of tests/.
for sub in bench examples; do
  cmake --build "$REACH_DIR/$sub" -j "$JOBS" >/dev/null
done
cmake -B "$REACH_DIR/perfbench" -S perfbench "${FLAGS[@]}" >/dev/null
cmake --build "$REACH_DIR/perfbench" -j "$JOBS" --target perfbench >/dev/null

mapfile -t BINARIES < <(find "$REACH_DIR/bench" "$REACH_DIR/examples" \
  -maxdepth 1 -type f -executable | sort)
BINARIES+=("$REACH_DIR/perfbench/perfbench")
mapfile -t ARCHIVES < <(find "$REACH_DIR/src" -name 'lib*.a' | sort)
echo "== [reach] ${#ARCHIVES[@]} archives, ${#BINARIES[@]} binaries =="

# One file per binary: the functions it defines (kept after gc-sections).
KEPT=$(mktemp -d)
trap 'rm -rf "$KEPT"' EXIT
for bin in "${BINARIES[@]}"; do
  nm -C --defined-only "$bin" | sed -n 's/^[0-9a-f]* [TtWw] //p' \
    >"$KEPT/$(basename "$bin")"
done
nm -C --defined-only "${ARCHIVES[@]}" 2>/dev/null \
  | sed -n 's/^[0-9a-f]* T //p' | sort -u >"$KEPT/.library"

python3 - "$KEPT" "$ALLOW" <<'PY'
import os
import sys

kept_dir, allow_path = sys.argv[1], sys.argv[2]


def read_names(name):
    """Demangled names, one a line, without ABI tags ([abi:cxx11])."""
    text = open(os.path.join(kept_dir, name)).read()
    return text.replace("[abi:cxx11]", "").splitlines()


library = sorted(set(read_names(".library")))
kept = {name: set(read_names(name))
        for name in os.listdir(kept_dir) if not name.startswith(".")}


def perf_only(binary):
    return binary.startswith("perf_") or binary == "perfbench"


def bare_name(symbol):
    """The symbol without its trailing parameter list and qualifiers."""
    end = len(symbol)
    for suffix in (" const", " &&", " &"):
        if symbol[:end].endswith(suffix):
            end -= len(suffix)
    if not symbol[:end].endswith(")"):
        return symbol
    depth = 0
    for i in range(end - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(symbol[i], 0)
        if depth == 0:
            return symbol[:i]
    return symbol


unreached, only_perf = [], []
for symbol in library:
    keepers = [b for b, syms in kept.items() if symbol in syms]
    if not keepers:
        unreached.append(symbol)
    elif all(perf_only(b) for b in keepers):
        only_perf.append(symbol)

allow, errors = {}, []
for lineno, line in enumerate(open(allow_path), 1):
    line = line.rstrip("\n")
    if not line.strip() or line.startswith("#"):
        continue
    entry, sep, reason = line.partition("  #")
    if not sep or not reason.strip():
        errors.append(f"{allow_path}:{lineno}: no `  # <reason>`: {line}")
        continue
    allow[entry.strip()] = lineno

covered = set()
missing = []
for symbol in unreached:
    hit = [e for e in (symbol, bare_name(symbol)) if e in allow]
    if hit:
        covered.update(hit)
    else:
        missing.append(symbol)
for entry, lineno in allow.items():
    if entry not in covered:
        errors.append(f"{allow_path}:{lineno}: stale entry (no unreached "
                      f"function matches it): {entry}")

print(f"reach: {len(library)} library functions, {len(unreached)} reached "
      f"by no binary ({len(unreached) - len(missing)} allow-listed), "
      f"{len(only_perf)} kept only by bench/perf_* or perfbench")
if only_perf:
    print("reach: kept only by bench/perf_* or perfbench (information):")
    for symbol in only_perf:
        print(f"  {symbol}")
for symbol in missing:
    errors.append(f"reached by no non-test binary and not allow-listed: "
                  f"{symbol}")
for error in errors:
    print(f"reach: error: {error}", file=sys.stderr)
sys.exit(1 if errors else 0)
PY

#!/usr/bin/env bash
# Byte-identical stdout gate for the simulated benches.
#
# Every simulated benchmark prints its results (tables, figure data) to
# stdout and all harness/progress chatter to stderr. Because the simulator
# is deterministic, that stdout must be byte-for-byte reproducible:
#   run-to-run   — two consecutive runs of the same binary must match, and
#   vs. golden   — each run must hash to the value committed in
#                  tools/golden_stdout.sha256.
# A diff here means someone introduced hash-order, wall-clock, or RNG
# nondeterminism into the simulated path (see tools/gvfs_lint for the
# static version of this gate). bench_micro is excluded by design: it
# prints host wall-clock timings.
#
# Each bench also writes BENCH_<name>.json into its cwd (a temp dir here,
# so the committed reports at the repo root are never overwritten). Its
# "simulated" and "metrics" sections must equal the committed report's: a
# renamed or dropped registry id changes no stdout, only the metrics.
# A missing or empty "metrics" section fails too.
#
# Usage: tools/check_stdout_invariance.sh [build-dir]
#   Builds the bench binaries if needed, runs each twice, diffs, hashes,
#   and compares the JSON sections. Runs from any cwd.
#   --update rewrites tools/golden_stdout.sha256 from the current binaries
#   (use only when a change intentionally alters simulated results; refresh
#   the committed BENCH_*.json reports in the same change).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
build_dir="$(realpath -m "${1:-$repo_root/build}")"
golden="$repo_root/tools/golden_stdout.sha256"

benches=(ablate_cache ablate_cascade ablate_meta ablate_prefetch
         ablate_writeback boot_storm dedup fault_recovery fig3_specseis
         fig4_latex fig5_kernel fig6_cloning origin_cluster
         shared_writeback table1_parallel zerofilter)

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
  --target "${benches[@]/#/bench_}" >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail=0
new_golden=""
for name in "${benches[@]}"; do
  bin="$build_dir/bench/bench_$name"
  (cd "$work" && "$bin" >"$name.run1" 2>/dev/null)
  (cd "$work" && "$bin" >"$name.run2" 2>/dev/null)
  if ! cmp -s "$work/$name.run1" "$work/$name.run2"; then
    echo "FAIL $name: stdout differs between two runs (nondeterminism)" >&2
    diff "$work/$name.run1" "$work/$name.run2" | head -20 >&2 || true
    fail=1
    continue
  fi
  got="$(sha256sum "$work/$name.run1" | cut -d' ' -f1)"
  new_golden+="$got  $name"$'\n'
  if [[ "$update" == 1 ]]; then
    echo "UPDATE $name $got"
    continue
  fi
  want="$(awk -v n="$name" '$2 == n { print $1 }' "$golden")"
  if [[ -z "$want" ]]; then
    echo "FAIL $name: no golden hash recorded in $golden" >&2
    fail=1
  elif [[ "$got" != "$want" ]]; then
    echo "FAIL $name: stdout hash $got != golden $want" >&2
    fail=1
  elif ! python3 - "$work/BENCH_$name.json" "$repo_root/BENCH_$name.json" <<'PY'
import json, sys
fresh_path, committed_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as fh:
    fresh = json.load(fh)
with open(committed_path) as fh:
    committed = json.load(fh)
metrics = fresh.get("metrics")
if not isinstance(metrics, dict) or not metrics:
    sys.exit(f"{fresh_path}: missing or empty \"metrics\" section")
for section in ("simulated", "metrics"):
    if fresh.get(section) != committed.get(section):
        sys.exit(f"\"{section}\" differs from the committed {committed_path}")
PY
  then
    echo "FAIL $name: BENCH_$name.json sections differ from the committed report" >&2
    fail=1
  else
    echo "OK   $name"
  fi
done

if [[ "$update" == 1 ]]; then
  printf '%s' "$new_golden" >"$golden"
  echo "wrote $golden"
  exit 0
fi

if [[ "$fail" != 0 ]]; then
  echo "stdout invariance check FAILED" >&2
  exit 1
fi
echo "stdout invariance check passed (${#benches[@]} benches, run twice each;" \
  "simulated + metrics sections match the committed reports)."

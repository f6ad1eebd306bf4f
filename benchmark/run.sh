#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--sets N]
#
# Options take "--opt value" or "--opt=value". Every run prints
# "workload metric value unit" lines and, last, one JSON line with the keys
# correct, attempted, failed and metrics; it also writes a results JSON (and,
# traced, a Chrome trace) under .bench_build/out/.
#
#   --trace 1   per-layer metrics instead of end-to-end ones
#   --smoke     tiny inputs that run every correctness gate quickly
#   --sets N    N untraced sets over all workloads (seeds seed..seed+N-1),
#               then the calibration table from compare.py
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload=all
seed=1
seconds=12
trace=0
smoke=0
sets=0
workloads=(hcci_qr_single hcci_gram_double video_rand_single serve_read serve_mixed)

die() { echo "run.sh: $*" >&2; exit 2; }

while [[ $# -gt 0 ]]; do
  key="${1%%=*}"
  has_val=0
  [[ "$1" == *=* ]] && has_val=1
  val="${1#*=}"
  shift
  case "$key" in
    --workload|--seed|--seconds|--sets)
      if [[ $has_val -eq 0 ]]; then
        [[ $# -gt 0 ]] || die "missing value for $key"
        val="$1"
        shift
      fi
      ;;
    --trace)  # a bare --trace means --trace 1
      if [[ $has_val -eq 0 ]]; then
        val=1
        if [[ $# -gt 0 && ( "$1" == 0 || "$1" == 1 ) ]]; then
          val="$1"
          shift
        fi
      fi
      ;;
  esac
  case "$key" in
    --workload) workload="$val" ;;
    --seed) seed="$val" ;;
    --seconds) seconds="$val" ;;
    --sets) sets="$val" ;;
    --trace) trace="$val" ;;
    --smoke) smoke=1 ;;
    *) die "unknown argument $key" ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed must be a whole number"
[[ "$sets" =~ ^[0-9]+$ ]] || die "--sets must be a whole number"
[[ "$trace" == 0 || "$trace" == 1 ]] || die "--trace takes 0 or 1"

# ---- build (Release only, with the library's own flags)
build=.bench_build/cmake
jobs="$(nproc)"
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S benchmark -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release >&2
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")"
[[ "$build_type" == Release ]] ||
  die "refusing to measure a '$build_type' build; remove $build and rerun"
cmake --build "$build" --target tucker_bench -j "$jobs" >&2
bin="$build/tucker_bench"

export TUCKER_NUM_THREADS="$jobs"
BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA
out=.bench_build/out

run_one() {  # workload seed trace
  local flags=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
               --out-dir "$out")
  [[ $smoke -eq 1 ]] && flags+=(--smoke)
  "$bin" "${flags[@]}"
}

if [[ "$workload" == all ]]; then
  selected=("${workloads[@]}")
else
  selected=("$workload")
fi

if [[ $sets -gt 0 ]]; then
  files=()
  status=0
  for ((s = 0; s < sets; s++)); do
    for w in "${selected[@]}"; do
      run_one "$w" $((seed + s)) 0 > /dev/null || status=1
      files+=("$out/${w}_seed$((seed + s)).json")
    done
  done
  python3 benchmark/compare.py calibrate "${files[@]}"
  exit $status
fi

if [[ ${#selected[@]} -eq 1 ]]; then
  run_one "${selected[0]}" "$seed" "$trace"
  exit $?
fi
status=0
for w in "${selected[@]}"; do
  run_one "$w" "$seed" "$trace" || status=1
done
exit $status

#!/usr/bin/env bash
# End-to-end benchmark of the RISA simulator.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
#
# Flags take `--flag value` or `--flag=value`; a bare `--trace` means 1.
# Builds benchmark/ (and, through it, the simulator) into build-bench/,
# then runs each workload in its own process so peak RSS is per workload.
# Without --workload every workload runs in turn.  Each run prints its
# metrics as `name value unit`, then one JSON result line, and writes the
# full result to build-bench/results/; --trace runs also write Perfetto
# traces to build-bench/trace/.  Exits nonzero if any check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

workload=""
seed=""
seconds=20
trace=0
while (($#)); do
  case "$1" in
    --workload=*) workload="${1#*=}" ;;
    --seed=*) seed="${1#*=}" ;;
    --seconds=*) seconds="${1#*=}" ;;
    --trace=*) trace="${1#*=}" ;;
    --workload | --seed | --seconds)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      declare "${1#--}=$2"
      shift ;;
    --trace)
      if [[ $# -ge 2 && ( $2 == 0 || $2 == 1 ) ]]; then trace="$2"; shift; else trace=1; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no simulator sources at $root (CMakeLists.txt, src/)" >&2
  exit 2
fi

mkdir -p "$build/results" "$build/trace"
# Configure once; the build step re-configures by itself when a CMake file
# or the source list changes.
if ! { { [[ -f "$build/CMakeCache.txt" ]] ||
         cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" --target risa_benchmark -j 4
     } > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

args_for() {
  args=(--workload="$1" --seconds="$seconds" --trace="$trace"
        --expected="$root/benchmark/expected.json"
        --trace-dir="$build/trace"
        --out="$build/results/$1-seed${seed:-default}-trace$trace.json")
  if [[ -n $seed ]]; then args+=(--seed="$seed"); fi
}

if [[ -n $workload ]]; then
  args_for "$workload"
  exec "$build/risa_benchmark" "${args[@]}"
fi

status=0
for w in $("$build/risa_benchmark" --list); do
  echo "== $w"
  args_for "$w"
  "$build/risa_benchmark" "${args[@]}" || status=1
done
if ((status)); then echo "run.sh: a check failed" >&2; fi
exit "$status"

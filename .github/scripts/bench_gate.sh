#!/usr/bin/env bash
# Bench-regression gate: compares the smoke-run `session_replay` kernel
# medians against the latest recorded rows in BENCH_replay.json and fails
# only on gross regressions (default tolerance: 3x).
#
# The baseline rows were recorded on a different machine than the CI
# runner, so raw nanosecond ratios would gate on runner speed, not on the
# code. The comparison is therefore **machine-normalised**: each kernel's
# smoke/baseline ratio is divided by the median ratio across all gated
# kernels (the runner's overall speed factor), and a kernel fails only
# when its normalised ratio exceeds the tolerance — i.e. when it regressed
# 3x *relative to its peers in the same run*. A uniformly slow runner
# passes; a single kernel blowing up does not. (A change that slows every
# kernel uniformly by 3x would also pass — that trade is deliberate: on
# shared CI hardware a global factor is indistinguishable from a slow
# runner, and the recorded BENCH_replay.json rows are the artefact that
# tracks absolute cost.)
#
# The gated units are the per-decision/per-solve *kernels* — the
# end-to-end replay units are too noisy for a 1-sample CI smoke run to
# judge.
#
# Usage: bench_gate.sh <baseline.json> <smoke.json> <baseline-phase> <smoke-phase> [tolerance]
set -euo pipefail

baseline_file="$1"
smoke_file="$2"
baseline_phase="$3"
smoke_phase="$4"
tolerance="${5:-3.0}"

median_of() {
  # median_of <file> <row name>: the median_ns of the named bench row.
  grep -F "\"name\": \"$2\"" "$1" | tail -n 1 | sed -E 's/.*"median_ns": ([0-9.eE+-]+).*/\1/'
}

# Entries are either a bare kernel name (compared against rows recorded
# under <baseline-phase>) or `<phase>:<kernel>` to pin the baseline to the
# PR phase that first recorded the unit — later PRs add kernels without
# re-recording the whole pr5 baseline.
kernels=(
  dvfs_decision/ladder_eval_17
  dvfs_decision/cached_decision
  solver_window/oracle_13x17_exact
  solver_window/hostile_12x17_anytime
  solver_window/rebuild_13x17
  pr8:predict_kernel/single_masked_f64
  pr8:predict_kernel/single_masked_packed
  pr13:shared_memo/generation_hit_cycle16
  pr9:shared_memo/publish_4x4
  pr12:shared_memo/publish_512x64
  pr13:shared_memo/record_publish_cycle
  pr14:engine_floor/execute_commit_31
)

fail=0
names=()
ratios=()
for kernel in "${kernels[@]}"; do
  bphase="$baseline_phase"
  case "$kernel" in
    *:*) bphase="${kernel%%:*}" kernel="${kernel#*:}" ;;
  esac
  base=$(median_of "$baseline_file" "session_replay/$bphase/$kernel" || true)
  smoke=$(median_of "$smoke_file" "session_replay/$smoke_phase/$kernel" || true)
  if [ -z "$base" ]; then
    echo "::error::no '$bphase' baseline row for $kernel in $baseline_file"
    fail=1
    continue
  fi
  if [ -z "$smoke" ]; then
    echo "::error::smoke run produced no row for $kernel"
    fail=1
    continue
  fi
  names+=("$kernel")
  ratios+=("$(awk -v s="$smoke" -v b="$base" 'BEGIN { printf "%.6f", s / b }')")
done

if [ "${#ratios[@]}" -eq 0 ]; then
  echo "::error::no kernels could be compared"
  exit 1
fi

speed_factor=$(printf '%s\n' "${ratios[@]}" | sort -n | awk '
  { r[NR] = $1 }
  END {
    if (NR % 2) { print r[(NR + 1) / 2] }
    else { printf "%.6f", (r[NR / 2] + r[NR / 2 + 1]) / 2 }
  }')
echo "runner speed factor (median smoke/baseline ratio): $speed_factor"

for i in "${!names[@]}"; do
  kernel="${names[$i]}"
  ratio="${ratios[$i]}"
  if awk -v r="$ratio" -v m="$speed_factor" -v t="$tolerance" \
    'BEGIN { exit !(r > m * t) }'; then
    echo "::error::$kernel regressed: ${ratio}x its baseline vs the run's ${speed_factor}x speed factor (tolerance ${tolerance}x)"
    fail=1
  else
    echo "$kernel: ${ratio}x baseline (normalised tolerance ${tolerance}x) — ok"
  fi
done
exit "$fail"

#!/bin/sh
# bench_guard.sh — CI regression gate for the scheduler hot path: rerun
# the BENCH_core.json benchmark set with a fixed iteration count and fail
# if any benchmark's ns/op regressed more than the threshold (default
# 30%) against the checked-in baseline, or if its allocs/op grew at all
# (the 0-alloc invariant is exact, not statistical).
#
# Fixed -benchtime=100000x iterations — rather than a wall-clock budget —
# keep the measured work identical run to run; -count=3 with the minimum
# taken per benchmark discards scheduler and cache warmup outliers. What
# variance remains is machine noise, which the generous threshold
# absorbs. The baseline is a committed artifact: regenerate it with
# scripts/bench.sh (clean tree) whenever a PR intentionally changes
# performance.
#
# Baselines that record a slots_per_sec throughput (the scale set) are
# additionally gated on it: the run's best slots/s must stay above
# baseline/(1+threshold). The metric is derived from the same timings as
# ns/op, so this adds no statistical power — it exists so the number
# DESIGN.md tells readers to watch is the number CI actually enforces.
#
# The scale baseline is guarded with a smaller fixed count (its per-op
# work is a full slot over a million tasks), more repeats, and a wider
# threshold. The scale benchmarks are bimodal on single-CPU boxes
# (~2.5x between the fast and slow mode, see DESIGN.md §10); bench.sh
# pins the slow mode as the baseline, extra repeats give the min a
# chance to land in either mode, and the 100% threshold absorbs the
# residual swing while still catching the order-of-magnitude accidents
# this gate exists for (e.g. the quadratic calq.Wheel.Reserve admission
# path the first scale run exposed):
#
#	BENCH_GUARD_THRESHOLD=100 scripts/bench_guard.sh BENCH_scale.json 'BenchmarkScale' 500x 4
#
# The default set (no bench-regex given) is three groups with their own
# fixed iteration counts: the ~100 ns slot benchmarks at 100000x, the
# Figure 3 EDF-FF analysis rows, whose N=500 sub-benchmark takes
# milliseconds per op, at 200x, and the uniprocessor job-simulator rows
# (BenchmarkUniprocTimers: EDF and RM order, wheel and heap release
# timers), each op a whole run of ~10–20 ms, at 20x.
#
# Every baseline row must match a benchmark in the run: a row that
# matched none (a renamed or deleted benchmark, a regex that no longer
# selects it) fails the gate as MISSING, so renaming a benchmark cannot
# silently un-gate it. Remove or rename the row in the same change.
#
# Usage: scripts/bench_guard.sh [baseline.json] [bench-regex] [benchtime] [count]
#   BENCH_GUARD_THRESHOLD  percent regression tolerated (default 30)
set -eu

cd "$(dirname "$0")/.."
base="${1:-BENCH_core.json}"
pattern="${2:-}"
benchtime="${3:-100000x}"
count="${4:-3}"
thresh="${BENCH_GUARD_THRESHOLD:-30}"

if [ ! -f "$base" ]; then
	echo "bench_guard.sh: baseline $base not found" >&2
	exit 1
fi

raw="$(mktemp -p . bench_guard.XXXXXX.txt)"
trap 'rm -f "$raw"' EXIT

if [ -n "$pattern" ]; then
	go test -run '^$' -bench "$pattern" \
		-benchmem -benchtime="$benchtime" -count="$count" . | tee "$raw"
else
	go test -run '^$' -bench 'BenchmarkFig2aPD2|BenchmarkFig2bPD2|BenchmarkFig1Windows' \
		-benchmem -benchtime="$benchtime" -count="$count" . | tee "$raw"
	go test -run '^$' -bench 'BenchmarkFig3EDFFF' \
		-benchmem -benchtime=200x -count="$count" . | tee -a "$raw"
	go test -run '^$' -bench 'BenchmarkUniprocTimers' \
		-benchmem -benchtime=20x -count="$count" . | tee -a "$raw"
fi

awk -v thresh="$thresh" '
# Pass 1: the baseline JSON, one benchmark per line.
FNR == NR {
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		ns = ""; al = ""; sl = ""
		if (match($0, /"ns_per_op": [0-9.eE+-]+/))    ns = substr($0, RSTART + 13, RLENGTH - 13)
		if (match($0, /"allocs_per_op": [0-9.eE+-]+/)) al = substr($0, RSTART + 17, RLENGTH - 17)
		if (match($0, /"slots_per_sec": [0-9.eE+-]+/)) sl = substr($0, RSTART + 17, RLENGTH - 17)
		if (ns != "") { base_ns[name] = ns + 0; base_al[name] = al + 0; border[++nbase] = name }
		if (sl != "") base_sl[name] = sl + 0
	}
	next
}
# Pass 2: the fresh run; keep the best (minimum ns/op, maximum slots/s)
# of the -count repeats per benchmark, and the worst allocs/op (that
# invariant is exact).
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	ns = ""; al = ""; sl = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")     ns = $(i - 1)
		if ($(i) == "allocs/op") al = $(i - 1)
		if ($(i) == "slots/s")   sl = $(i - 1)
	}
	if (ns == "" || !(name in base_ns)) next
	if (!(name in run_ns) || ns + 0 < run_ns[name]) run_ns[name] = ns + 0
	if (al != "" && (!(name in run_al) || al + 0 > run_al[name])) run_al[name] = al + 0
	if (sl != "" && (!(name in run_sl) || sl + 0 > run_sl[name])) run_sl[name] = sl + 0
}
END {
	for (k = 1; k <= nbase; k++) {
		name = border[k]
		if (!(name in run_ns)) {
			printf "MISSING %s: baseline row matched no benchmark run\n", name
			bad++
			continue
		}
		checked++
		limit = base_ns[name] * (1 + thresh / 100)
		if (run_ns[name] > limit) {
			printf "REGRESSION %s: %.4g ns/op vs baseline %.4g (> +%s%%)\n", name, run_ns[name], base_ns[name], thresh
			bad++
		} else {
			printf "ok %s: %.4g ns/op vs baseline %.4g\n", name, run_ns[name], base_ns[name]
		}
		if ((name in run_al) && run_al[name] > base_al[name]) {
			printf "REGRESSION %s: %d allocs/op vs baseline %d\n", name, run_al[name], base_al[name]
			bad++
		}
		if ((name in base_sl) && (name in run_sl)) {
			floor = base_sl[name] / (1 + thresh / 100)
			if (run_sl[name] < floor) {
				printf "REGRESSION %s: %.4g slots/s vs baseline %.4g (< baseline/(1+%s%%))\n", name, run_sl[name], base_sl[name], thresh
				bad++
			} else {
				printf "ok %s: %.4g slots/s vs baseline %.4g\n", name, run_sl[name], base_sl[name]
			}
		}
	}
	if (checked == 0) { print "bench_guard: no benchmarks matched the baseline"; exit 1 }
	printf "bench_guard: %d benchmarks checked, %d regressions or missing rows (threshold +%s%% ns/op)\n", checked, bad + 0, thresh
	if (bad > 0) exit 1
}
' "$base" "$raw"

#!/bin/sh
# bench.sh — run a scheduler benchmark set and emit a machine-readable
# JSON baseline, so CI (or a reviewer) can diff performance across
# commits. The default set is the hot-path benchmarks plus the Figure 3
# EDF-FF analysis rows (BENCH_core.json), and the uniprocessor
# job-simulator rows (BenchmarkUniprocTimers) at the fixed 20x count
# scripts/bench_guard.sh reruns them with — each op is a whole run;
# pass a different output and pattern for other sets, e.g. the scale run:
#
#	scripts/bench.sh BENCH_scale.json 'BenchmarkScale' 500x 3
#
# The file is an object: a "meta" block stamping the provenance of the
# numbers (git commit, Go version, GOMAXPROCS) followed by a "benchmarks"
# array with name, ns/op, and allocs/op per benchmark — plus slots/s and
# first-slot-ms for benchmarks that report those metrics. Apart from the measured
# timings and the stamp itself the output is byte-stable: same
# benchmarks, same order, same formatting on every run.
#
# With count > 1 the baseline pins the SLOWEST repeat per benchmark
# (max ns/op, max allocs/op, min slots/s). Baselines exist to catch
# regressions: bench_guard.sh compares its best repeat against this
# file, so pinning a lucky fast repeat turns machine bimodality into
# intermittent CI failures. The scale benchmarks on single-CPU boxes
# swing ~2.5x run to run (see DESIGN.md §10); a conservative baseline
# plus the guard's widened scale threshold absorbs that.
#
# Every run also appends a dated entry to <output>.trajectory.json, an
# append-only JSON array recording the repo's performance history commit
# by commit. Re-running on the SAME commit replaces that commit's last
# entry instead of appending a duplicate: regenerating a baseline while
# iterating on a PR used to leave N near-identical trajectory entries
# for one commit, which made the history lie about how often the tree
# changed.
#
# A dirty working tree is refused: numbers that cannot be attributed to a
# commit poison both the checked-in baseline and the trajectory. Set
# BENCH_ALLOW_DIRTY=1 to override for local experiments (the entry is
# still stamped dirty; dirty entries are never deduplicated, since they
# do not represent the commit they name).
#
# Usage: scripts/bench.sh [output.json] [bench-regex] [benchtime] [count]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_core.json}"
pattern="${2:-}"
benchtime="${3:-0.2s}"
count="${4:-1}"
traj="${out%.json}.trajectory.json"
raw="$(mktemp -p . bench.XXXXXX.txt)"
trap 'rm -f "$raw"' EXIT

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=false
if ! git diff --quiet HEAD 2>/dev/null; then
	dirty=true
fi
if [ "$dirty" = true ]; then
	if [ "${BENCH_ALLOW_DIRTY:-}" = "1" ]; then
		echo "bench.sh: WARNING: working tree is dirty; numbers are not attributable to commit $commit" >&2
	else
		echo "bench.sh: refusing to benchmark a dirty working tree (commit stamps would lie)." >&2
		echo "bench.sh: commit or stash your changes, or set BENCH_ALLOW_DIRTY=1 to override." >&2
		exit 1
	fi
fi
goversion="$(go env GOVERSION)"
# GOMAXPROCS defaults to the online CPU count unless the env overrides it.
maxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"

if [ -n "$pattern" ]; then
	go test -run '^$' -bench "$pattern" \
		-benchmem -benchtime="$benchtime" -count="$count" . | tee "$raw"
else
	go test -run '^$' -bench 'BenchmarkFig2aPD2|BenchmarkFig2bPD2|BenchmarkFig1Windows|BenchmarkFig3EDFFF' \
		-benchmem -benchtime="$benchtime" -count="$count" . | tee "$raw"
	go test -run '^$' -bench 'BenchmarkUniprocTimers' \
		-benchmem -benchtime=20x -count="$count" . | tee -a "$raw"
fi

# benchcollect is shared awk source: parse one `BenchmarkX ...` line and
# fold it into the per-name aggregate, keeping the conservative repeat
# (max ns/op, max allocs/op, min slots/s, max first-slot-ms — with
# count=1 this is the identity). Values stay the strings go printed so formatting survives.
benchcollect='
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix: names are machine-independent
	nsop = ""; allocs = ""; slots = ""; first = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")         nsop   = $(i - 1)
		if ($(i) == "allocs/op")     allocs = $(i - 1)
		if ($(i) == "slots/s")       slots  = $(i - 1)
		if ($(i) == "first-slot-ms") first  = $(i - 1)
	}
	if (nsop == "") next
	if (!(name in max_ns)) {
		order[++nnames] = name
		max_ns[name] = nsop; max_al[name] = allocs; min_sl[name] = slots; max_fs[name] = first
	} else {
		if (nsop + 0 > max_ns[name] + 0) max_ns[name] = nsop
		if (allocs != "" && (max_al[name] == "" || allocs + 0 > max_al[name] + 0)) max_al[name] = allocs
		if (slots != "" && (min_sl[name] == "" || slots + 0 < min_sl[name] + 0)) min_sl[name] = slots
		if (first != "" && (max_fs[name] == "" || first + 0 > max_fs[name] + 0)) max_fs[name] = first
	}
'
# benchjson emits the aggregate for order[k] as one JSON object.
# Benchmarks that b.ReportMetric a slots/s throughput get a
# slots_per_sec field, and those reporting the latency of an untimed
# first slot a first_slot_ms field; others omit them, keeping the core
# baseline format unchanged.
benchjson='
	name = order[k]
	printf "{\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s", name, max_ns[name], (max_al[name] == "" ? "null" : max_al[name])
	if (min_sl[name] != "") printf ", \"slots_per_sec\": %s", min_sl[name]
	if (max_fs[name] != "") printf ", \"first_slot_ms\": %s", max_fs[name]
	printf "}"
'

awk -v commit="$commit" -v dirty="$dirty" -v gover="$goversion" -v procs="$maxprocs" '
BEGIN {
	print "{"
	printf "  \"meta\": {\"commit\": \"%s\", \"dirty\": %s, \"go\": \"%s\", \"gomaxprocs\": %s},\n", commit, dirty, gover, procs
	print "  \"benchmarks\": ["
}
/^Benchmark/ {
'"$benchcollect"'
}
END {
	for (k = 1; k <= nnames; k++) {
		if (k > 1) print ","
		printf "    "
'"$benchjson"'
	}
	print "\n  ]\n}"
}
' "$raw" > "$out"

echo "wrote $out"

# Append this run to the trajectory: one compact dated entry per run, the
# file as a whole a valid JSON array.
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
entry="$(awk -v date="$date" -v commit="$commit" -v dirty="$dirty" -v gover="$goversion" '
BEGIN {
	printf "{\"date\": \"%s\", \"commit\": \"%s\", \"dirty\": %s, \"go\": \"%s\", \"benchmarks\": [", date, commit, dirty, gover
}
/^Benchmark/ {
'"$benchcollect"'
}
END {
	for (k = 1; k <= nnames; k++) {
		if (k > 1) printf ", "
'"$benchjson"'
	}
	printf "]}"
}
' "$raw")"

if [ -f "$traj" ]; then
	# Same-commit dedup: if the file's LAST entry is a clean run of this
	# commit, replace it rather than appending a near-duplicate. Only the
	# last entry is considered — an interleaved run on another commit
	# legitimately starts a new entry, preserving the ordering of events.
	last="$(sed '$d' "$traj" | tail -n 1)"
	case "$dirty,$last" in
	false,*"\"commit\": \"$commit\""*"\"dirty\": false"*)
		prev="$(sed '$d' "$traj" | sed '$d')" # drop closing bracket and the stale entry
		if [ "$prev" = "[" ]; then
			printf '[\n%s\n]\n' "$entry" > "$traj"
		else
			# prev still ends with the separator comma that preceded the
			# stale entry, so a plain join re-forms a valid array.
			printf '%s\n%s\n]\n' "$prev" "$entry" > "$traj"
		fi
		echo "replaced same-commit entry in $traj"
		;;
	*)
		prevall="$(sed '$d' "$traj")" # drop the closing bracket
		printf '%s,\n%s\n]\n' "$prevall" "$entry" > "$traj"
		echo "appended to $traj"
		;;
	esac
else
	printf '[\n%s\n]\n' "$entry" > "$traj"
	echo "appended to $traj"
fi

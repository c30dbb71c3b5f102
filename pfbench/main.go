// Command pfbench is the repository benchmark. It drives the program's
// public entry points (experiments.Fig3, core.Scheduler, obs export, the
// pfairtrace binary) on one named workload, checks the outputs, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// tracing attached. With -trace 1 the run also makes a traced pass that
// times every call into each layer (spans kept in memory, written to
// -out when the pass ends) and reports the per-layer set instead.
//
// Usage (normally through run.sh, which builds this binary and
// pfairtrace first):
//
//	pfbench -workload fig34-sweep|storm-1m|churn-traced -seed N -seconds S -trace 0|1
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// config is what every workload receives.
type config struct {
	seed       int64
	seconds    float64
	trace      bool
	workers    int    // goroutines a workload may fan out to (≤ nproc)
	outDir     string // where spans and exported traces go
	pfairtrace string // path of the prebuilt pfairtrace binary
}

// metric is one measured value; its name and unit live in the spec
// tables below.
type metric struct {
	Value float64
	Note  string // human-readable context: sample counts, what it covers
}

// result is a workload's outcome: its metrics and its correctness tally.
// attempted counts the operations whose outputs were checked and failed
// the ones that failed a check; failures lists what went wrong.
type result struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// add records a metric value; note says what it covers.
func (r *result) add(name string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Note: note}
}

// tally counts attempted checked operations, failed of which failed a
// check, and keeps the message of the first few failures.
func (r *result) tally(attempted, failed int64, format string, args ...any) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation, failed when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	failed := int64(1)
	if ok {
		failed = 0
	}
	r.tally(1, failed, format, args...)
}

var workloads = map[string]func(config) (*result, error){
	"fig34-sweep":  runFig34,
	"storm-1m":     runStorm,
	"churn-traced": runChurn,
}

// spec is a declared metric: its name and unit, as BENCHMARK.json lists
// them.
type spec struct{ name, unit string }

// endToEnd is the untraced pass's metric set, in report order. Every
// workload reports every one; README.md gives each one's meaning per
// workload.
var endToEnd = []spec{
	{"setup_s", "s"}, {"wall_s", "s"}, {"items_per_s", "1/s"},
	{"item_p50_us", "us"}, {"item_p99_us", "us"}, {"tail_ms", "ms"},
	{"report_s", "s"}, {"heap_mb", "MiB"},
}

// perLayer is the traced pass's metric set. A layer a workload bypasses
// reads 0 there.
var perLayer = []spec{
	{"taskgen.gen_ms_sum", "ms"},
	{"overhead.pd2_ms_p50", "ms"}, {"overhead.pd2_ms_p99", "ms"},
	{"overhead.edfff_ms_p50", "ms"}, {"overhead.edfff_ms_p99", "ms"},
	{"overhead.edfff_share", "ratio"}, {"overhead.pd2_iters_max", "count"},
	{"partition.bins_sum", "count"}, {"experiments.fanout_eff", "ratio"},
	{"engine.release_ns_mean", "ns"}, {"engine.release_ns_p99", "ns"},
	{"engine.pick_ns_mean", "ns"}, {"engine.pick_ns_p99", "ns"},
	{"engine.dispatch_ns_mean", "ns"},
	{"engine.account_ns_mean", "ns"}, {"engine.account_ns_p99", "ns"},
	{"engine.next_ns_mean", "ns"}, {"engine.first_slot_ms", "ms"},
	{"core.allocations", "count"}, {"core.preemptions", "count"}, {"core.migrations", "count"},
	{"core.join_us_p50", "us"}, {"core.join_us_p99", "us"},
	{"admission.submit_us_p50", "us"}, {"admission.submit_us_p99", "us"},
	{"admission.accept_ratio", "ratio"}, {"admission.ledger_len", "count"},
	{"obs.events_total", "count"}, {"obs.events_dropped", "count"},
	{"obs.export_ms", "ms"}, {"obs.trace_mb", "MiB"}, {"pfairtrace.report_ms", "ms"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_count", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_growth_mb", "MiB"},
	{"taskgen.self_ms", "ms"}, {"overhead.self_ms", "ms"}, {"experiments.self_ms", "ms"},
	{"core.self_ms", "ms"}, {"engine.self_ms", "ms"}, {"admission.self_ms", "ms"},
	{"obs.self_ms", "ms"}, {"pfairtrace.self_ms", "ms"}, {"bench.self_ms", "ms"},
	{"check.fail_ratio", "ratio"}, {"bench.trace_overhead", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "fig34-sweep, storm-1m or churn-traced")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed region repeats its fixed work")
	trace := flag.Int("trace", 0, "1 = add the traced pass and report per-layer metrics")
	outDir := flag.String("out", ".bench_build/pfbench", "directory for spans and exported traces")
	pfairtrace := flag.String("pfairtrace", ".bench_build/pfbench/pfairtrace", "prebuilt pfairtrace binary")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: pfbench -workload fig34-sweep|storm-1m|churn-traced -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "pfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		workers:    runtime.GOMAXPROCS(0),
		outDir:     *outDir,
		pfairtrace: *pfairtrace,
	}
	if n := runtime.NumCPU(); cfg.workers > n {
		cfg.workers = n
	}
	// Per-item times are read from this thread's CPU clock (cpuNow).
	runtime.LockOSThread()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	line, err := res.render(*workload, want, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// render prints the human-readable report and returns the final JSON
// line holding exactly the wanted metrics. An end-to-end metric the
// workload did not produce is a benchmark bug and an error; a per-layer
// metric of a layer the workload bypasses reads 0.
func (r *result) render(workload string, want []spec, traced bool) (string, error) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	if traced {
		ratio := 0.0
		if r.attempted > 0 {
			ratio = float64(r.failed) / float64(r.attempted)
		}
		r.add("check.fail_ratio", ratio, "")
	}
	fmt.Printf("# %s\n", workload)
	for _, sp := range want {
		m, ok := r.metrics[sp.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s not produced", sp.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", sp.name, m.Value)
		}
		out[sp.name] = jm{Value: m.Value, Unit: sp.unit}
		note := ""
		if !ok {
			note = "  # layer not exercised by this workload"
		} else if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Printf("%-26s %16.6g %-6s%s\n", sp.name, m.Value, sp.unit, note)
	}
	fmt.Printf("checked %d operations, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation was checked")
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	return string(b), err
}

// quantile returns the nearest-rank q-quantile (the ⌈q·n⌉-th smallest)
// of xs, sorting xs in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	k := int(math.Ceil(q * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	return xs[k-1]
}

// median returns the middle value of xs, or the mean of the two middle
// values when there is an even number, sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailSum returns the sum of the k largest values, sorting xs in place.
func tailSum(xs []float64, k int) float64 {
	sort.Float64s(xs)
	if k > len(xs) {
		k = len(xs)
	}
	return sum(xs[len(xs)-k:])
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

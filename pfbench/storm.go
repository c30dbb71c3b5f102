package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// The storm-1m workload: 2^20 cost-1 tasks on BenchmarkScalePD2's period
// menu, M = 64, no observability attached. Every period divides the
// hyperperiod, so each hyperperiod replays the same synchronous release
// storms; the seed only permutes which task gets which period.
const (
	stormTasks = 1 << 20
	stormProcs = 64
	stormTag   = 101 // SubSeed stream tag of this workload
)

var stormPeriods = []int64{16384, 24576, 32768, 49152}

// stormHyper is the menu's hyperperiod, the timed unit of work;
// stormHyperPerRep of them run on each set-up.
const (
	stormHyper       = 98304
	stormHyperPerRep = 2
)

// stormSet builds the task set: an equal share of tasks per period,
// shuffled by the seed.
func stormSet(seed int64) task.Set {
	periods := make([]int64, stormTasks)
	for i := range periods {
		periods[i] = stormPeriods[i%len(stormPeriods)]
	}
	rng := rand.New(rand.NewSource(taskgen.SubSeed(seed, stormTag)))
	rng.Shuffle(len(periods), func(i, j int) { periods[i], periods[j] = periods[j], periods[i] })
	set := make(task.Set, stormTasks)
	for i, p := range periods {
		set[i] = &task.Task{Name: "T" + strconv.Itoa(i), Cost: 1, Period: p}
	}
	return set
}

// stormAllocations is Σᵢ H/pᵢ, the quanta one hyperperiod must hand out.
func stormAllocations(set task.Set) int64 {
	n := int64(0)
	for _, t := range set {
		n += stormHyper / t.Period * t.Cost
	}
	return n
}

// stormSetup builds the set and admits every task. joinNs, when non-nil,
// receives each Join's host time.
func stormSetup(seed int64, joinNs []float64, opts ...engine.Option) (*core.Scheduler, task.Set, error) {
	set := stormSet(seed)
	s := core.NewScheduler(stormProcs, core.PD2, core.Options{}, opts...)
	for i, t := range set {
		var t0 time.Time
		if joinNs != nil {
			t0 = time.Now()
		}
		if err := s.Join(t); err != nil {
			return nil, nil, fmt.Errorf("join %s: %w", t.Name, err)
		}
		if joinNs != nil {
			joinNs[i] = float64(time.Since(t0).Nanoseconds())
		}
	}
	return s, set, nil
}

// stepAll runs len(ns) slots, storing each Step's CPU time in ns, and
// returns the wall time of the whole stretch in seconds. One clock read
// per slot.
func stepAll(s *core.Scheduler, ns []float64) float64 {
	start := time.Now()
	prev := cpuNow()
	for i := range ns {
		s.Step()
		now := cpuNow()
		ns[i] = float64(now - prev)
		prev = now
	}
	return time.Since(start).Seconds()
}

// checkStorm checks a finished stretch of slots: FinishMisses finds no
// miss and exactly the expected quanta were handed out.
func checkStorm(r *result, s *core.Scheduler, before core.Stats, want int64) {
	st := s.Stats()
	got := st.Allocations - before.Allocations
	misses := int64(len(st.Misses) - len(before.Misses))
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	r.tally(want, misses+diff, "hyperperiod ending at %d: %d allocations (want %d), %d misses", s.Now(), got, want, misses)
}

func runStorm(cfg config) (*result, error) {
	r := newResult()
	var heap heapPeak

	// Each repetition builds the system afresh and runs two whole
	// hyperperiods on it. Host time per slot differs from one build of
	// the 1 GiB state to the next by up to a quarter, so medians over
	// several builds are steadier than many hyperperiods on one.
	var setups, walls, reports []float64
	var items itemStats
	firstSlot := 0.0
	seconds, minReps := cfg.seconds, 3
	if cfg.trace {
		seconds, minReps = 0, 1
	}
	ns := make([]float64, stormHyper)
	if err := repeat(seconds, minReps, func(rep int) error {
		runtime.GC()
		t0 := time.Now()
		s, set, err := stormSetup(cfg.seed, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		want := stormAllocations(set)
		for hp := 0; hp < stormHyperPerRep; hp++ {
			heap.mark()
			before := s.Stats()
			walls = append(walls, stepAll(s, ns))
			fmt.Printf("set-up %d hyperperiod %d: %.3fs, slot 0 %.1fms\n", rep, hp, walls[len(walls)-1], ns[0]/1e6)
			if len(walls) == 1 {
				firstSlot = ns[0]
			}
			items.add(ns)
			t1 := time.Now()
			s.FinishMisses(s.Now())
			reports = append(reports, time.Since(t1).Seconds())
			checkStorm(r, s, before, want)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	wall := median(walls)
	if !cfg.trace {
		r.add("setup_s", median(setups), fmt.Sprintf("build and Join %d tasks; median of %d", stormTasks, len(setups)))
		r.add("wall_s", wall, fmt.Sprintf("one hyperperiod (%d slots); median of %d", stormHyper, len(walls)))
		r.add("items_per_s", stormHyper/wall, "simulated slots per host second")
		items.report(r, "one Step")
		r.add("report_s", median(reports), "FinishMisses at a hyperperiod's end; median")
		r.add("heap_mb", heap.mib(), "largest live heap at the checkpoints after set-up and between repetitions")
		return r, nil
	}

	// Traced pass: a fresh set-up with each Join timed and the phase
	// profiler sampling every step, then one hyperperiod.
	runtime.GC()
	prof := obs.NewPhaseProfiler(nil, 1)
	tr := newTracer()
	root := tr.begin("bench.storm", -1)
	joinNs := make([]float64, stormTasks)
	sp := tr.begin("core.setup", root)
	s, set, err := stormSetup(cfg.seed, joinNs, engine.WithProfiler(prof))
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	live0 := liveHeap()
	gc0 := gcNow()
	run := tr.begin("bench.run", root)
	for i := 0; i < stormHyper; i++ {
		st := tr.begin("engine.step", run)
		s.Step()
		tr.end(st)
	}
	traced := float64(tr.end(run))
	r.addGC(gc0, "the traced hyperperiod")
	r.add("runtime.heap_growth_mb", (liveHeap()-live0)/mib, "live heap after the hyperperiod minus after set-up")
	fin := tr.begin("core.finish", root)
	s.FinishMisses(s.Now())
	tr.end(fin)
	tr.end(root)
	checkStorm(r, s, core.Stats{}, stormAllocations(set))
	st := s.Stats()
	r.add("core.allocations", float64(st.Allocations), "quanta in one hyperperiod (exact)")
	r.add("core.preemptions", float64(st.Preemptions), "exact")
	r.add("core.migrations", float64(st.Migrations), "exact")
	r.add("core.join_us_p50", quantile(joinNs, 0.5)/1e3, fmt.Sprintf("%d Joins", len(joinNs)))
	r.add("core.join_us_p99", quantile(joinNs, 0.99)/1e3, fmt.Sprintf("%d Joins", len(joinNs)))
	r.add("engine.first_slot_ms", firstSlot/1e6, "slot 0 of the first untraced hyperperiod: the cold storm")
	addPhases(r, prof)
	r.add("bench.trace_overhead", traced/1e9/wall, "traced hyperperiod ÷ untraced")
	r.addSelf(tr)
	return r, tr.write(filepath.Join(cfg.outDir, "spans-storm-1m.jsonl"))
}

// addPhases reports the engine phase profile: means from the histogram
// sums and counts, p99 as the upper bound of the bucket holding it.
func addPhases(r *result, p *obs.PhaseProfiler) {
	mean := func(h *obs.Histogram) float64 {
		if h.Count() == 0 {
			return 0
		}
		return float64(h.Sum()) / float64(h.Count())
	}
	// p99 returns the bucket bound and a note saying whether the p99
	// lies below it or, in the overflow bucket, above it.
	p99 := func(h *obs.Histogram) (float64, string) {
		bounds, cum := h.Buckets()
		need := (99*h.Count() + 99) / 100
		for i, c := range cum {
			if c >= need && i < len(bounds) {
				return float64(bounds[i]), "upper bound of the bucket holding p99"
			}
		}
		return float64(bounds[len(bounds)-1]), "p99 is in the overflow bucket, above this bound"
	}
	note := fmt.Sprintf("%d sampled steps", p.Samples.Value())
	r.add("engine.release_ns_mean", mean(p.Release), note)
	v, n := p99(p.Release)
	r.add("engine.release_ns_p99", v, n)
	r.add("engine.pick_ns_mean", mean(p.Pick), note)
	v, n = p99(p.Pick)
	r.add("engine.pick_ns_p99", v, n)
	r.add("engine.dispatch_ns_mean", mean(p.Dispatch), note)
	r.add("engine.account_ns_mean", mean(p.Account), note)
	v, n = p99(p.Account)
	r.add("engine.account_ns_p99", v, n)
	r.add("engine.next_ns_mean", mean(p.Next), note)
}

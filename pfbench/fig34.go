package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"pfair/internal/experiments"
	"pfair/internal/overhead"
	"pfair/internal/stats"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// The fig34-sweep workload runs the Figure 3/4 analysis sweep the way
// `experiments fig3|fig4` does, at fewer sets per point than the default.
var fig34Ns = []int{50, 100, 250, 500}

const (
	fig34Steps       = 12
	fig34SetsPerStep = 5
	// fig34SeedTag is the experiments package's stream tag for Figure 3
	// (seedFig3): the per-set loops below regenerate exactly the sets
	// experiments.Fig3 evaluates, which the point checks confirm.
	fig34SeedTag = 3
	// Section 4's constants as experiments.PaperParams sets them.
	fig34Quantum = 1000
	fig34Switch  = 5
)

// fig34Input is one task set of the sweep, generated from Fig3's seeds.
type fig34Input struct {
	n, step int
	set     task.Set
	params  overhead.Params
	util    float64
}

// fig34Generate builds every set of the sweep, in (N, step, set) order,
// as Fig3's per-set loop does. With a tracer each set's generation is a
// taskgen.gen span.
func fig34Generate(seed int64, tr *tracer, parent int32) ([]fig34Input, error) {
	var in []fig34Input
	for _, n := range fig34Ns {
		lo, hi := float64(n)/30, float64(n)/3
		for step := 0; step < fig34Steps; step++ {
			target := lo + (hi-lo)*float64(step)/float64(fig34Steps-1)
			for s := 0; s < fig34SetsPerStep; s++ {
				id := int32(-1)
				if tr != nil {
					id = tr.begin("taskgen.gen", parent)
				}
				g := taskgen.New(taskgen.SubSeed(seed, fig34SeedTag, int64(n), int64(step), int64(s)))
				set, err := g.SetCapped("T", n, target, 0.9, experiments.Fig3PeriodsUS)
				if err != nil {
					return nil, fmt.Errorf("generating N=%d step %d set %d: %w", n, step, s, err)
				}
				params := experiments.PaperParams(n, g.CacheDelays(set, 100))
				if tr != nil {
					tr.end(id)
				}
				in = append(in, fig34Input{n: n, step: step, set: set, params: params, util: set.TotalUtilization()})
			}
		}
	}
	return in, nil
}

// pd2LowerBound is an exact lower bound on the processors PD² needs at
// m processors, computed without the overhead package: Equation (3)
// charges every job at least one scheduling invocation and one context
// switch, so each task's quantum-rounded weight is at least
// ⌈(e+S+C)/q⌉ / (p/q). Periods come from Fig3PeriodsUS, whose quantum
// counts all divide 1000, so the sum is an integer count of 1/1000ths.
func pd2LowerBound(set task.Set, m int) int64 {
	s := experiments.DefaultSchedPD2(m, len(set))
	num := int64(0)
	for _, t := range set {
		quanta := (t.Cost + s + fig34Switch + fig34Quantum - 1) / fig34Quantum
		num += quanta * (1000 / (t.Period / fig34Quantum))
	}
	return (num + 999) / 1000
}

// edfLowerBound is the same bound for EDF-FF: every job pays two
// scheduler invocations and two context switches, e′ ≥ e + 2(S+C).
// Periods divide 10⁶ µs, so the sum is an integer count of 10⁻⁶ units.
func edfLowerBound(set task.Set) int64 {
	s := experiments.DefaultSchedEDF(len(set))
	num := int64(0)
	for _, t := range set {
		num += (t.Cost + 2*(s+fig34Switch)) * (1000000 / t.Period)
	}
	return (num + 999999) / 1000000
}

// setOutcome is one set's evaluation.
type setOutcome struct {
	pd2, ff overhead.Result
	losses  overhead.Losses
}

// checkSet checks one set's counts against the independent lower bounds.
func checkSet(r *result, in fig34Input, o setOutcome) {
	if o.pd2.Processors < 0 || o.ff.Processors < 0 {
		// Fig3 skips a set no processor count can schedule; so do we.
		r.check(true, "")
		return
	}
	lbP, lbF := pd2LowerBound(in.set, o.pd2.Processors), edfLowerBound(in.set)
	r.check(int64(o.pd2.Processors) >= lbP && float64(o.pd2.Processors) >= o.pd2.InflatedUtil-1e-9,
		"N=%d step %d: PD² needs %d processors, below ⌈Σ inflated weight⌉ = %d (reported %.3f)",
		in.n, in.step, o.pd2.Processors, lbP, o.pd2.InflatedUtil)
	r.check(int64(o.ff.Processors) >= lbF && float64(o.ff.Processors) >= o.ff.InflatedUtil-1e-9,
		"N=%d step %d: EDF-FF uses %d processors, below ⌈Σ inflated utilization⌉ = %d (reported %.3f)",
		in.n, in.step, o.ff.Processors, lbF, o.ff.InflatedUtil)
}

// checkPoints checks a sweep's output: every point's counts cover its
// utilization, losses are fractions, the utilization is one the
// benchmark's own generated sets can average to, and — given per-set
// outcomes — the means are exactly the ones those outcomes give.
func checkPoints(r *result, data map[int][]experiments.Fig3Point, in []fig34Input, outs []setOutcome) {
	for _, n := range fig34Ns {
		pts := data[n]
		r.check(len(pts) == fig34Steps, "N=%d: %d points, want %d", n, len(pts), fig34Steps)
		for step, p := range pts {
			if step >= fig34Steps {
				break
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			var pd2S, ffS, util stats.Sample
			var lossP, lossE, lossF stats.Sample
			for i, x := range in {
				if x.n != n || x.step != step {
					continue
				}
				lo, hi = math.Min(lo, x.util), math.Max(hi, x.util)
				if outs == nil {
					continue
				}
				o := outs[i]
				if o.pd2.Processors < 0 || o.ff.Processors < 0 {
					continue
				}
				pd2S.AddInt(int64(o.pd2.Processors))
				ffS.AddInt(int64(o.ff.Processors))
				util.Add(x.util)
				lossP.Add(o.losses.Pfair)
				lossE.Add(o.losses.EDF)
				lossF.Add(o.losses.FF)
			}
			ok := !anyNaN(p.TotalUtil, p.PD2Procs, p.FFProcs, p.LossPfair, p.LossEDF, p.LossFF) &&
				p.PD2Procs >= p.TotalUtil && p.FFProcs >= p.TotalUtil &&
				inUnit(p.LossPfair) && inUnit(p.LossEDF) && inUnit(p.LossFF) &&
				p.TotalUtil >= lo-1e-9 && p.TotalUtil <= hi+1e-9
			if outs != nil {
				ok = ok && p.PD2Procs == pd2S.Mean() && p.FFProcs == ffS.Mean() && p.TotalUtil == util.Mean() &&
					p.LossPfair == lossP.Mean() && p.LossEDF == lossE.Mean() && p.LossFF == lossF.Mean()
			}
			r.check(ok, "N=%d point %d: %+v fails the point checks (generated utilization range [%.3f, %.3f])", n, step, p, lo, hi)
		}
	}
}

func anyNaN(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func inUnit(x float64) bool { return x >= 0 && x <= 1 }

// renderFig34 renders the Figure 3 and 4 tables the way `experiments
// fig3` and `experiments fig4` print them.
func renderFig34(data map[int][]experiments.Fig3Point) []byte {
	var b bytes.Buffer
	experiments.RenderFig3(&b, fig34Ns, data)
	experiments.RenderFig4(&b, fig34Ns, data)
	return b.Bytes()
}

func runFig34(cfg config) (*result, error) {
	r := newResult()
	var heap heapPeak

	// Set-up: generate the sweep's inputs, five times; the median is
	// setup_s.
	var in []fig34Input
	var setups []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = fig34Generate(cfg.seed, nil, -1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heap.mark()
	}
	live0 := 0.0
	if cfg.trace {
		live0 = liveHeap()
	}
	gc0 := gcNow()

	// Each repetition times one whole Fig3 sweep (Workers = nproc), the
	// rendering of its tables, and then a serial pass that evaluates
	// every set as Fig3's loop does, timing each; the pass's results
	// must reproduce the sweep's points.
	fcfg := experiments.Fig3Config{
		Ns: fig34Ns, Steps: fig34Steps, SetsPerStep: fig34SetsPerStep,
		Seed: cfg.seed, Workers: cfg.workers,
	}
	var walls, renders []float64
	var items itemStats
	var firstSum string
	var outs []setOutcome
	var serialWall float64
	seconds, minReps := cfg.seconds, 2
	if cfg.trace {
		seconds, minReps = 0, 1
	}
	if err := repeat(seconds, minReps, func(rep int) error {
		heap.mark()
		t0 := time.Now()
		data := experiments.Fig3(fcfg)
		walls = append(walls, time.Since(t0).Seconds())
		// The report: render both figures' tables and hash them. One
		// rendering takes well under a millisecond, so the figure is the
		// mean over a batch of renderings.
		const batch = 500
		var digest [sha256.Size]byte
		t1 := time.Now()
		for k := 0; k < batch; k++ {
			digest = sha256.Sum256(renderFig34(data))
		}
		renders = append(renders, time.Since(t1).Seconds()/batch)
		if rep == 0 {
			firstSum = hex.EncodeToString(digest[:])
		}
		r.check(hex.EncodeToString(digest[:]) == firstSum, "sweep %d renders differently from sweep 0 at the same seed", rep)

		outs = make([]setOutcome, len(in))
		perSet := make([]float64, len(in))
		t2 := time.Now()
		for i, x := range in {
			t0 := cpuNow()
			losses, pd2, ff := overhead.ComputeLosses(x.set, x.params)
			perSet[i] = float64(cpuNow() - t0)
			outs[i] = setOutcome{pd2: pd2, ff: ff, losses: losses}
		}
		serialWall = time.Since(t2).Seconds()
		for i, x := range in {
			checkSet(r, x, outs[i])
		}
		checkPoints(r, data, in, outs)
		// The item is one x-position of the figures: a utilization
		// step's sets at every N. Steps cost about the same, whereas
		// single sets differ by two orders of magnitude between N=50
		// and N=500.
		steps := make([]float64, fig34Steps)
		for i, x := range in {
			steps[x.step] += perSet[i]
		}
		items.add(steps)
		return nil
	}); err != nil {
		return nil, err
	}
	fmt.Printf("fig3/fig4 tables sha256 %s (seed %d, %d sets per point)\n", firstSum, cfg.seed, fig34SetsPerStep)

	wall := median(walls)
	if !cfg.trace {
		r.add("setup_s", median(setups), fmt.Sprintf("generate the sweep's %d task sets; median of %d", len(in), len(setups)))
		r.add("wall_s", wall, fmt.Sprintf("one Fig3 sweep, %d workers; median of %d", cfg.workers, len(walls)))
		r.add("items_per_s", float64(len(in))/wall, "task sets evaluated per second in the sweep")
		items.report(r, fmt.Sprintf("one utilization step's %d sets, serial", len(in)/fig34Steps))
		r.add("report_s", median(renders), "render Fig3+Fig4 tables and hash them; median over sweeps")
		r.add("heap_mb", heap.mib(), "largest live heap at the checkpoints after set-up and between repetitions")
		return r, nil
	}

	// Traced pass: the same per-set loop with a span around each call
	// into a layer. Generation is traced as a set-up.
	tr := newTracer()
	root := tr.begin("experiments.sweep", -1)
	gen := tr.begin("experiments.setup", root)
	if _, err := fig34Generate(cfg.seed, tr, gen); err != nil {
		return nil, err
	}
	tr.end(gen)
	var pd2T, ffT []float64
	genT := 0.0
	for _, sp := range tr.spans {
		if sp.Name == "taskgen.gen" {
			genT += float64(sp.End - sp.Start)
		}
	}
	itersMax, bins := 0, int64(0)
	analysed := 0.0
	for i, x := range in {
		set := tr.begin("experiments.set", root)
		p := tr.begin("overhead.pd2", set)
		pd2 := overhead.MinProcsPD2(x.set, x.params)
		pd2T = append(pd2T, float64(tr.end(p)))
		f := tr.begin("overhead.edfff", set)
		ff := overhead.MinProcsEDFFF(x.set, x.params)
		ffT = append(ffT, float64(tr.end(f)))
		analysed += float64(tr.end(set))
		r.check(pd2.Processors == outs[i].pd2.Processors && ff.Processors == outs[i].ff.Processors,
			"N=%d step %d: traced pass counts %d/%d differ from untraced %d/%d",
			x.n, x.step, pd2.Processors, ff.Processors, outs[i].pd2.Processors, outs[i].ff.Processors)
		checkSet(r, x, setOutcome{pd2: pd2, ff: ff})
		if pd2.Iterations > itersMax {
			itersMax = pd2.Iterations
		}
		if ff.Processors > 0 {
			bins += int64(ff.Processors)
		}
	}
	tr.end(root)
	r.add("taskgen.gen_ms_sum", genT/1e6, fmt.Sprintf("%d sets generated", len(in)))
	r.add("overhead.pd2_ms_p50", quantile(pd2T, 0.5)/1e6, "MinProcsPD2 per set")
	r.add("overhead.pd2_ms_p99", quantile(pd2T, 0.99)/1e6, fmt.Sprintf("%d sets", len(pd2T)))
	r.add("overhead.edfff_ms_p50", quantile(ffT, 0.5)/1e6, "MinProcsEDFFF (with partition.Pack) per set")
	r.add("overhead.edfff_ms_p99", quantile(ffT, 0.99)/1e6, fmt.Sprintf("%d sets", len(ffT)))
	r.add("overhead.edfff_share", sum(ffT)/(sum(ffT)+sum(pd2T)), "EDF-FF time ÷ PD² + EDF-FF time")
	r.add("overhead.pd2_iters_max", float64(itersMax), "largest fixed-point iteration count")
	r.add("partition.bins_sum", float64(bins), "Σ EDF-FF processors over the sweep")
	r.add("experiments.fanout_eff", (genT+analysed)/1e9/(wall*float64(cfg.workers)),
		fmt.Sprintf("serial per-set time ÷ (sweep wall %.3fs × %d workers)", wall, cfg.workers))
	r.add("bench.trace_overhead", analysed/1e9/serialWall, "traced per-set pass ÷ untraced per-set pass")
	r.addSelf(tr)
	r.addGC(gc0, "the sweep and both per-set passes")
	r.add("runtime.heap_growth_mb", (liveHeap()-live0)/mib, "live heap after the passes minus after set-up")
	runtime.KeepAlive(in)
	return r, tr.write(filepath.Join(cfg.outDir, "spans-fig34-sweep.jsonl"))
}

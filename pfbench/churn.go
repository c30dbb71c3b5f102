package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// The churn-traced workload: ~4096 generated tasks at 0.7·M utilization
// on M = 32, four seeded join/leave/reweight requests per slot, with a
// recorder (default ring), per-task accounting and scheduler metrics
// attached as `pfairsim -trace -taskstats -metrics` attaches them. The
// run ends with a Chrome trace export and a `pfairtrace -json` report.
const (
	churnTasks     = 4096
	churnProcs     = 32
	churnSlots     = 10000
	churnPerSlot   = 4
	churnTag       = 102 // SubSeed stream tag of this workload
	churnWeightDen = 10000
)

// churnPeriods all divide churnWeightDen, so every weight is an exact
// integer count of 1/10000ths and the admission replay below needs no
// rational arithmetic.
var churnPeriods = []int64{100, 200, 250, 400, 500, 1000, 2000, 2500, 5000, 10000}

// churnOp is one submitted request and its outcome, kept for the
// admission replay.
type churnOp struct {
	slot         int64
	op           admission.Op
	name         string
	cost, period int64
	accepted     bool
	at           int64 // EffectiveAt of an accepted request
}

// churnRun is one repetition's state.
type churnRun struct {
	s       *core.Scheduler
	rec     *obs.Recorder
	initial task.Set
	rng     *rand.Rand
	// live holds the names a request may target: admitted and not
	// leaving or mid-reweight. back holds reweighted names until their
	// new weight takes effect.
	live     []string
	back     []churnOp
	nextID   int
	ops      []churnOp
	submitNs []float64
}

// churnSetup generates the task set, attaches the observability layer
// and admits every task.
func churnSetup(seed int64, tr *tracer, parent int32, opts ...engine.Option) (*churnRun, error) {
	sp := int32(-1)
	if tr != nil {
		sp = tr.begin("taskgen.gen", parent)
	}
	g := taskgen.New(taskgen.SubSeed(seed, churnTag, 0))
	set, err := g.Set("T", churnTasks, 0.7*churnProcs, churnPeriods)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(sp)
		sp = tr.begin("core.setup", parent)
	}
	s := core.NewScheduler(churnProcs, core.PD2, core.Options{}, opts...)
	rec := obs.NewRecorder(0)
	rec.SetAccounting(obs.NewAccounting())
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	c := &churnRun{s: s, rec: rec, initial: set, rng: rand.New(rand.NewSource(taskgen.SubSeed(seed, churnTag, 1)))}
	for _, t := range set {
		if err := s.Join(t); err != nil {
			return nil, fmt.Errorf("initial join %s: %w", t.Name, err)
		}
		c.live = append(c.live, t.Name)
	}
	if tr != nil {
		tr.end(sp)
	}
	return c, nil
}

// params draws a period from the menu and a cost for a per-task
// utilization uniform in (0, 2·mean), mean being the initial set's.
func (c *churnRun) params() (cost, period int64) {
	period = churnPeriods[c.rng.Intn(len(churnPeriods))]
	u := c.rng.Float64() * 2 * 0.7 * churnProcs / churnTasks
	cost = int64(u*float64(period) + 0.5)
	if cost < 1 {
		cost = 1
	}
	return cost, period
}

// take removes and returns a random targetable name.
func (c *churnRun) take() string {
	i := c.rng.Intn(len(c.live))
	name := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	return name
}

// slot submits this slot's requests and steps the scheduler. With a
// tracer each Submit and the Step are spans under parent.
func (c *churnRun) slot(tr *tracer, parent int32) {
	now := c.s.Now()
	// Reweighted tasks become targetable once their new weight is in.
	kept := c.back[:0]
	for _, b := range c.back {
		if b.at < now {
			c.live = append(c.live, b.name)
		} else {
			kept = append(kept, b)
		}
	}
	c.back = kept
	for k := 0; k < churnPerSlot; k++ {
		o := churnOp{slot: now}
		var req admission.Request
		// Joins outnumber leaves 3:2, so utilization climbs from 0.7·M to
		// the capacity within the run and the feasibility test starts
		// refusing joins and upward reweights.
		switch kind := c.rng.Intn(7); {
		case kind < 3 || len(c.live) == 0:
			o.op = admission.OpJoin
			o.name = "J" + strconv.Itoa(c.nextID)
			c.nextID++
			o.cost, o.period = c.params()
			req = admission.Join(&task.Task{Name: o.name, Cost: o.cost, Period: o.period})
		case kind < 5:
			o.op, o.name = admission.OpLeave, c.take()
			req = admission.Leave(o.name)
		default:
			o.op, o.name = admission.OpReweight, c.take()
			o.cost, o.period = c.params()
			req = admission.Reweight(o.name, o.cost, o.period)
		}
		sp := int32(-1)
		if tr != nil {
			sp = tr.begin("admission.submit", parent)
		}
		t0 := time.Now()
		d, err := c.s.Submit(req)
		c.submitNs = append(c.submitNs, float64(time.Since(t0).Nanoseconds()))
		if tr != nil {
			tr.end(sp)
		}
		o.accepted, o.at = err == nil, d.EffectiveAt
		switch {
		case o.op == admission.OpJoin && o.accepted:
			c.live = append(c.live, o.name)
		case o.op == admission.OpReweight && o.accepted:
			c.back = append(c.back, o)
		case o.op == admission.OpReweight:
			c.live = append(c.live, o.name)
		}
		c.ops = append(c.ops, o)
	}
	if tr != nil {
		sp := tr.begin("engine.step", parent)
		c.s.Step()
		tr.end(sp)
		return
	}
	c.s.Step()
}

// replayAdmission checks every decision against the exact capacity rule
// Σ wt ≤ M, tracked here in integer 1/10000ths: a join or an upward
// reweight is accepted exactly when it fits; leaves and downward
// reweights are always accepted. Departures free their weight, and
// downward reweights swap it, at the top of the effective slot, after
// that slot's requests. It returns how many decisions disagree.
func replayAdmission(initial task.Set, ops []churnOp) (bad int64, first string) {
	w := map[string]int64{}
	total := int64(0)
	weight := func(cost, period int64) int64 { return cost * (churnWeightDen / period) }
	for _, t := range initial {
		w[t.Name] = weight(t.Cost, t.Period)
		total += w[t.Name]
	}
	type effect struct {
		at    int64
		name  string
		leave bool
		newW  int64
		swap  bool // downward reweight: swap old for new at the boundary
	}
	var pending []effect
	capacity := int64(churnProcs * churnWeightDen)
	for _, o := range ops {
		kept := pending[:0]
		for _, e := range pending {
			if e.at >= o.slot {
				kept = append(kept, e)
				continue
			}
			switch {
			case e.leave:
				total -= w[e.name]
				delete(w, e.name)
			case e.swap:
				total += e.newW - w[e.name]
				w[e.name] = e.newW
			default:
				w[e.name] = e.newW
			}
		}
		pending = kept
		want := true
		switch o.op {
		case admission.OpJoin:
			nw := weight(o.cost, o.period)
			if want = total+nw <= capacity; want {
				w[o.name] = nw
				total += nw
			}
		case admission.OpLeave:
			pending = append(pending, effect{at: o.at, name: o.name, leave: true})
		case admission.OpReweight:
			nw := weight(o.cost, o.period)
			if nw > w[o.name] {
				if want = total-w[o.name]+nw <= capacity; want {
					total += nw - w[o.name]
					pending = append(pending, effect{at: o.at, name: o.name, newW: nw})
				}
			} else {
				pending = append(pending, effect{at: o.at, name: o.name, newW: nw, swap: true})
			}
		}
		if want != o.accepted {
			bad++
			if first == "" {
				first = fmt.Sprintf("slot %d: %v %s %d/%d accepted=%v, exact rule says %v", o.slot, o.op, o.name, o.cost, o.period, o.accepted, want)
			}
		}
	}
	return bad, first
}

// pfairtraceReport is the part of `pfairtrace -json` output checked here.
type pfairtraceReport struct {
	Ring struct {
		TotalEvents    int64 `json:"totalEvents"`
		RetainedEvents int64 `json:"retainedEvents"`
	} `json:"ring"`
	Tasks []struct {
		Dispatches int64 `json:"dispatches"`
	} `json:"tasks"`
}

// export writes the Chrome trace and runs pfairtrace on it, returning
// the two durations and the file size.
func (c *churnRun) export(cfg config, tr *tracer, parent int32) (exportS, reportS float64, size int64, rep pfairtraceReport, err error) {
	path := filepath.Join(cfg.outDir, "churn-trace.json")
	sp := int32(-1)
	if tr != nil {
		sp = tr.begin("obs.export", parent)
	}
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, 0, rep, err
	}
	opt := obs.ChromeTraceOptions{Procs: churnProcs, Extra: map[string]any{"alg": core.PD2.String(), "m": churnProcs}}
	if err := obs.WriteChromeTrace(f, c.rec, opt); err != nil {
		f.Close()
		return 0, 0, 0, rep, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, 0, rep, err
	}
	exportS = time.Since(t0).Seconds()
	if tr != nil {
		tr.end(sp)
		sp = tr.begin("pfairtrace.report", parent)
	}
	t1 := time.Now()
	var out bytes.Buffer
	cmd := exec.Command(cfg.pfairtrace, "-json", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, 0, 0, rep, fmt.Errorf("pfairtrace: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return 0, 0, 0, rep, fmt.Errorf("pfairtrace output: %w", err)
	}
	reportS = time.Since(t1).Seconds()
	if tr != nil {
		tr.end(sp)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, rep, err
	}
	return exportS, reportS, st.Size(), rep, nil
}

// checkChurn checks a finished repetition: no misses, every admission
// decision matches the exact rule, the refusals the benchmark saw are
// the ones the plane counted, and the exported trace carries the ring's
// retained events into pfairtrace intact.
func checkChurn(r *result, c *churnRun, rep pfairtraceReport) {
	st := c.s.Stats()
	var first core.Miss
	if len(st.Misses) > 0 {
		first = st.Misses[0]
	}
	r.tally(churnSlots, int64(len(st.Misses)), "%d deadline misses, first %+v", len(st.Misses), first)
	bad, firstBad := replayAdmission(c.initial, c.ops)
	r.tally(int64(len(c.ops)), bad, "%d admission decisions disagree with Σwt ≤ M; %s", bad, firstBad)
	refused, accepted := int64(0), int64(0)
	for _, o := range c.ops {
		if o.accepted {
			accepted++
		} else {
			refused++
		}
	}
	r.check(refused == c.s.AdmissionRejects(), "benchmark saw %d refusals, plane counted %d", refused, c.s.AdmissionRejects())
	r.check(int64(len(c.s.AdmissionLog())) == int64(len(c.initial))+accepted,
		"ledger holds %d decisions, want %d initial joins + %d accepted", len(c.s.AdmissionLog()), len(c.initial), accepted)
	events := c.rec.Events()
	schedules := int64(0)
	for _, e := range events {
		if e.Kind == obs.EvSchedule {
			schedules++
		}
	}
	dispatches := int64(0)
	for _, t := range rep.Tasks {
		dispatches += t.Dispatches
	}
	r.check(rep.Ring.RetainedEvents == int64(len(events)) && rep.Ring.TotalEvents == int64(c.rec.Total()) && dispatches == schedules,
		"pfairtrace read %d of %d events and %d dispatches; the ring retained %d of %d with %d schedule events",
		rep.Ring.RetainedEvents, rep.Ring.TotalEvents, dispatches, len(events), c.rec.Total(), schedules)
}

func runChurn(cfg config) (*result, error) {
	r := newResult()
	var heap heapPeak

	// Each repetition builds a fresh system: the observed path's slot
	// cost grows with run length, so every repetition measures the same
	// 10 000 slots from set-up on. The collector is paused for those
	// slots and runs at the checkpoint after them. Left running, its
	// assists landed on whichever slots allocated while it marked, and
	// moved tail_ms by a third between runs of one seed; paused, the
	// slots still pay for every allocation, and heap_mb and
	// runtime.alloc_mb show what the run left to collect.
	var setups, walls, reports []float64
	var items itemStats
	firstSlot := 0.0
	seconds, minReps := cfg.seconds, 3
	if cfg.trace {
		seconds, minReps = 0, 1
	}
	ns := make([]float64, churnSlots)
	if err := repeat(seconds, minReps, func(rep int) error {
		runtime.GC()
		t0 := time.Now()
		c, err := churnSetup(cfg.seed, nil, -1)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		c.submitNs = make([]float64, 0, churnSlots*churnPerSlot)
		c.ops = make([]churnOp, 0, churnSlots*churnPerSlot)
		heap.mark()
		gcPercent := debug.SetGCPercent(-1)
		start := time.Now()
		for i := range ns {
			t1 := cpuNow()
			c.slot(nil, -1)
			ns[i] = float64(cpuNow() - t1)
		}
		walls = append(walls, time.Since(start).Seconds())
		debug.SetGCPercent(gcPercent)
		fmt.Printf("repetition %d: %.3fs\n", rep, walls[rep])
		c.s.FinishMisses(c.s.Now())
		heap.mark()
		if rep == 0 {
			firstSlot = ns[0]
		}
		items.add(ns)
		exportS, reportS, _, prep, err := c.export(cfg, nil, -1)
		if err != nil {
			return err
		}
		reports = append(reports, exportS+reportS)
		checkChurn(r, c, prep)
		return nil
	}); err != nil {
		return nil, err
	}
	wall := median(walls)
	if !cfg.trace {
		r.add("setup_s", median(setups), fmt.Sprintf("generate and Join %d tasks with the recorder attached; median of %d", churnTasks, len(setups)))
		r.add("wall_s", wall, fmt.Sprintf("%d slots with %d requests each; median of %d", churnSlots, churnPerSlot, len(walls)))
		r.add("items_per_s", churnSlots/wall, "simulated slots per host second")
		items.report(r, "one slot's requests and Step")
		r.add("report_s", median(reports), "WriteChromeTrace plus pfairtrace -json; median")
		r.add("heap_mb", heap.mib(), "largest live heap at the checkpoints after set-up and between repetitions")
		return r, nil
	}

	// Traced pass: one more repetition with spans around every call into
	// a layer and the phase profiler sampling every step.
	prof := obs.NewPhaseProfiler(nil, 1)
	tr := newTracer()
	root := tr.begin("bench.churn", -1)
	c, err := churnSetup(cfg.seed, tr, root, engine.WithProfiler(prof))
	if err != nil {
		return nil, err
	}
	c.submitNs = make([]float64, 0, churnSlots*churnPerSlot)
	live0 := liveHeap()
	gc0 := gcNow()
	run := tr.begin("bench.run", root)
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < churnSlots; i++ {
		c.slot(tr, run)
	}
	traced := float64(tr.end(run))
	debug.SetGCPercent(gcPercent)
	r.addGC(gc0, "the traced run (collector paused)")
	growth := (liveHeap() - live0) / mib
	fin := tr.begin("core.finish", root)
	c.s.FinishMisses(c.s.Now())
	tr.end(fin)
	exportS, reportS, size, prep, err := c.export(cfg, tr, root)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	checkChurn(r, c, prep)

	accepted := 0
	for _, o := range c.ops {
		if o.accepted {
			accepted++
		}
	}
	r.add("engine.first_slot_ms", firstSlot/1e6, "slot 0 of the first untraced repetition")
	addPhases(r, prof)
	st := c.s.Stats()
	r.add("core.allocations", float64(st.Allocations), "exact")
	r.add("core.preemptions", float64(st.Preemptions), "exact")
	r.add("core.migrations", float64(st.Migrations), "exact")
	r.add("admission.submit_us_p50", quantile(c.submitNs, 0.5)/1e3, fmt.Sprintf("%d Submits", len(c.submitNs)))
	r.add("admission.submit_us_p99", quantile(c.submitNs, 0.99)/1e3, fmt.Sprintf("%d Submits", len(c.submitNs)))
	r.add("admission.accept_ratio", float64(accepted)/float64(len(c.ops)), fmt.Sprintf("%d of %d requests", accepted, len(c.ops)))
	r.add("admission.ledger_len", float64(len(c.s.AdmissionLog())), "len(AdmissionLog())")
	r.add("obs.events_total", float64(c.rec.Total()), "Recorder.Total")
	r.add("obs.events_dropped", float64(c.rec.Dropped()), "Recorder.Dropped")
	r.add("obs.export_ms", exportS*1e3, "WriteChromeTrace")
	r.add("obs.trace_mb", float64(size)/mib, "exported trace file")
	r.add("pfairtrace.report_ms", reportS*1e3, "pfairtrace -json, process start to parsed report")
	r.add("runtime.heap_growth_mb", growth, "live heap after the run minus after set-up")
	r.add("bench.trace_overhead", traced/1e9/wall, "traced run ÷ untraced")
	r.addSelf(tr)
	return r, tr.write(filepath.Join(cfg.outDir, "spans-churn-traced.jsonl"))
}

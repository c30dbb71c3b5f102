package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/experiments"
	"pfair/internal/obs"
	"pfair/internal/overhead"
	"pfair/internal/stats"
	"pfair/internal/task"
)

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metric
// tables the binary reports from in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDecl            `json:"end_to_end"`
		PerLayer  []metricDecl            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, decl []metricDecl, specs []spec) {
		if len(decl) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the binary reports %d", kind, len(decl), len(specs))
			return
		}
		for i, d := range decl {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary %s (%s)", kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the binary runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.run", Parent: -1, Start: 0, End: 100},
		{Name: "engine.step", Parent: 0, Start: 10, End: 40},
		{Name: "admission.submit", Parent: 0, Start: 50, End: 60},
		{Name: "engine.step", Parent: 0, Start: 60, End: 90},
	}}
	self := tr.selfByLayer()
	if self["bench"] != 30 || self["engine"] != 60 || self["admission"] != 10 {
		t.Fatalf("self times %v, want bench 30, engine 60, admission 10", self)
	}
}

func TestTailSumAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := tailSum(xs, 2); got != 9 {
		t.Fatalf("tailSum = %v, want 9", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Fatalf("p50 = %v, want the 2nd smallest, 2", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// fig34Fixture evaluates the first and last generated sets of the sweep
// (the smallest and the largest N).
func fig34Fixture(t *testing.T) ([]fig34Input, []setOutcome) {
	t.Helper()
	in, err := fig34Generate(1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]setOutcome, len(in))
	for _, i := range []int{0, len(in) - 1} {
		l, p, f := overhead.ComputeLosses(in[i].set, in[i].params)
		outs[i] = setOutcome{pd2: p, ff: f, losses: l}
	}
	return in, outs
}

func TestCheckSetFiresOnPlantedFaults(t *testing.T) {
	in, outs := fig34Fixture(t)
	last := len(in) - 1
	r := newResult()
	checkSet(r, in[0], outs[0])
	checkSet(r, in[last], outs[last])
	if r.failed != 0 {
		t.Fatalf("real outcomes failed: %v", r.failures)
	}

	pd2 := outs[last]
	pd2.pd2.Processors = int(pd2LowerBound(in[last].set, pd2.pd2.Processors)) - 1
	ff := outs[last]
	ff.ff.Processors = 1
	for name, o := range map[string]setOutcome{"PD² count below its bound": pd2, "EDF-FF count below its bound": ff} {
		r := newResult()
		checkSet(r, in[last], o)
		if r.failed != 1 {
			t.Errorf("%s: %d failures, want 1", name, r.failed)
		}
	}
}

// fig34Points aggregates per-set outcomes into points exactly as
// experiments.Fig3 does.
func fig34Points(in []fig34Input, outs []setOutcome) map[int][]experiments.Fig3Point {
	data := map[int][]experiments.Fig3Point{}
	for _, n := range fig34Ns {
		for step := 0; step < fig34Steps; step++ {
			var pd2S, ffS, util, lp, le, lf stats.Sample
			for i, x := range in {
				if x.n != n || x.step != step {
					continue
				}
				pd2S.AddInt(int64(outs[i].pd2.Processors))
				ffS.AddInt(int64(outs[i].ff.Processors))
				util.Add(x.util)
				lp.Add(outs[i].losses.Pfair)
				le.Add(outs[i].losses.EDF)
				lf.Add(outs[i].losses.FF)
			}
			data[n] = append(data[n], experiments.Fig3Point{
				N: n, TotalUtil: util.Mean(), MeanUtil: util.Mean() / float64(n),
				PD2Procs: pd2S.Mean(), FFProcs: ffS.Mean(),
				LossPfair: lp.Mean(), LossEDF: le.Mean(), LossFF: lf.Mean(),
			})
		}
	}
	return data
}

func TestCheckPointsFiresOnPlantedFaults(t *testing.T) {
	in, err := fig34Generate(1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic outcomes that satisfy every point check: counts above
	// the utilization, losses inside [0, 1].
	outs := make([]setOutcome, len(in))
	for i, x := range in {
		c := int(math.Ceil(x.util)) + 1
		outs[i] = setOutcome{
			pd2:    overhead.Result{Processors: c},
			ff:     overhead.Result{Processors: c + 1},
			losses: overhead.Losses{Pfair: 0.1, EDF: 0.05, FF: 0.2},
		}
	}
	r := newResult()
	checkPoints(r, fig34Points(in, outs), in, outs)
	if r.failed != 0 {
		t.Fatalf("consistent points failed: %v", r.failures)
	}

	faults := map[string]func(d map[int][]experiments.Fig3Point){
		"NaN loss":                 func(d map[int][]experiments.Fig3Point) { d[50][0].LossFF = math.NaN() },
		"loss above one":           func(d map[int][]experiments.Fig3Point) { d[100][3].LossEDF = 1.5 },
		"PD² below utilization":    func(d map[int][]experiments.Fig3Point) { d[250][5].PD2Procs = d[250][5].TotalUtil - 1 },
		"mean differs from sets":   func(d map[int][]experiments.Fig3Point) { d[500][11].FFProcs += 0.2 },
		"utilization out of range": func(d map[int][]experiments.Fig3Point) { d[500][0].TotalUtil *= 2 },
		"missing point":            func(d map[int][]experiments.Fig3Point) { d[100] = d[100][:fig34Steps-1] },
	}
	for name, plant := range faults {
		data := fig34Points(in, outs)
		plant(data)
		r := newResult()
		checkPoints(r, data, in, outs)
		if r.failed == 0 {
			t.Errorf("%s: no check fired", name)
		}
	}
}

// stormFixture runs a two-processor system for one hyperperiod of its
// own and returns it with the quanta it should have handed out.
func stormFixture(t *testing.T, overload bool) (*core.Scheduler, int64) {
	t.Helper()
	s := core.NewScheduler(2, core.PD2, core.Options{})
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)}
	for _, x := range set {
		if err := s.Join(x); err != nil {
			t.Fatal(err)
		}
	}
	if overload {
		s.FailProcessors(1)
	}
	const h = 30
	if err := s.RunUntil(h); err != nil {
		t.Fatal(err)
	}
	s.FinishMisses(h)
	return s, 3 * h / 3 * 2
}

func TestCheckStormFiresOnPlantedFaults(t *testing.T) {
	s, want := stormFixture(t, false)
	r := newResult()
	checkStorm(r, s, core.Stats{}, want)
	if r.failed != 0 {
		t.Fatalf("correct run failed: %v", r.failures)
	}
	r = newResult()
	checkStorm(r, s, core.Stats{}, want+1)
	if r.failed != 1 {
		t.Errorf("allocation count off by one: %d failures, want 1", r.failed)
	}
	s, want = stormFixture(t, true)
	r = newResult()
	checkStorm(r, s, core.Stats{}, want)
	if r.failed == 0 {
		t.Errorf("overloaded run with %d misses passed", len(s.Stats().Misses))
	}
}

func TestReplayAdmissionFiresOnWrongDecisions(t *testing.T) {
	// 32 processors: one task of weight 1 per processor except the last,
	// which holds 9900/10000, leaving 100 units of capacity.
	var initial task.Set
	for i := 0; i < churnProcs-1; i++ {
		initial = append(initial, task.MustNew("F"+string(rune('a'+i)), 100, 100))
	}
	initial = append(initial, task.MustNew("L", 99, 100))
	ops := []churnOp{
		{slot: 3, op: admission.OpJoin, name: "J0", cost: 2, period: 100, accepted: false},  // 200 units: no room
		{slot: 3, op: admission.OpLeave, name: "L", accepted: true, at: 5},                  // frees 9900 units at slot 5
		{slot: 5, op: admission.OpJoin, name: "J1", cost: 2, period: 100, accepted: false},  // the leave lands after slot 5's requests
		{slot: 6, op: admission.OpJoin, name: "J2", cost: 2, period: 100, accepted: true},   // now it fits
		{slot: 6, op: admission.OpReweight, name: "J2", cost: 1, period: 1, accepted: true}, // upward, fits: reserves at once
		{slot: 6, op: admission.OpJoin, name: "J3", cost: 1, period: 1, accepted: false},    // the reservation leaves no room
	}
	if bad, first := replayAdmission(initial, ops); bad != 0 {
		t.Fatalf("exact decisions flagged: %s", first)
	}
	for i := range ops {
		if ops[i].op == admission.OpLeave {
			continue
		}
		flipped := append([]churnOp(nil), ops...)
		flipped[i].accepted = !flipped[i].accepted
		if bad, _ := replayAdmission(initial, flipped); bad == 0 {
			t.Errorf("flipping decision %d (%v %s) went unnoticed", i, ops[i].op, ops[i].name)
		}
	}
}

func TestCheckChurnFiresOnPlantedFaults(t *testing.T) {
	c, err := churnSetup(1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.slot(nil, -1)
	}
	c.s.FinishMisses(c.s.Now())
	// The report pfairtrace gives for an intact export.
	var rep pfairtraceReport
	rep.Ring.TotalEvents = int64(c.rec.Total())
	rep.Ring.RetainedEvents = int64(len(c.rec.Events()))
	n := int64(0)
	for _, e := range c.rec.Events() {
		if e.Kind == obs.EvSchedule {
			n++
		}
	}
	rep.Tasks = append(rep.Tasks, struct {
		Dispatches int64 `json:"dispatches"`
	}{n})

	r := newResult()
	checkChurn(r, c, rep)
	if r.failed != 0 {
		t.Fatalf("intact run failed: %v", r.failures)
	}

	lost := rep
	lost.Tasks = append([]struct {
		Dispatches int64 `json:"dispatches"`
	}(nil), rep.Tasks...)
	lost.Tasks[0].Dispatches--
	r = newResult()
	checkChurn(r, c, lost)
	if r.failed != 1 {
		t.Errorf("a dispatch lost in export: %d failures, want 1", r.failed)
	}

	c.ops[0].accepted = !c.ops[0].accepted
	r = newResult()
	checkChurn(r, c, rep)
	if r.failed < 2 {
		t.Errorf("a misreported decision: %d failures, want the replay and the refusal count to fire", r.failed)
	}
}

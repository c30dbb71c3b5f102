package overhead

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pfair/internal/partition"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// refMinProcsEDFFF is the reference EDF-FF computation the incremental
// bin must reproduce: for every (candidate, processor) pair it clones the
// processor's tasks, recomputes every task's inflation from the largest
// cache delay among strictly longer periods, and re-sums Σ e′/p from
// scratch; the reported inflated utilization is recomputed the same way.
func refMinProcsEDFFF(set task.Set, p Params) Result {
	res := Result{BaseUtil: set.TotalUtilization()}
	ordered := set.SortByPeriodDecreasing()
	inflated := func(t *task.Task, others task.Set) int64 {
		maxD := int64(0)
		for _, u := range others {
			if u.Period > t.Period {
				if d := p.CacheDelay(u); d > maxD {
					maxD = d
				}
			}
		}
		return InflateEDF(t.Cost, p, maxD)
	}
	accept := func(assigned task.Set, cand *task.Task) bool {
		total := rational.NewAcc()
		all := append(assigned.Clone(), cand)
		for _, t := range all {
			infl := inflated(t, all)
			if infl > t.Period {
				return false
			}
			total.Add(rational.New(infl, t.Period))
		}
		return total.CmpInt(1) <= 0
	}
	var procs []task.Set
	for _, t := range ordered {
		placed := false
		for i := range procs {
			if accept(procs[i], t) {
				procs[i] = append(procs[i], t)
				placed = true
				break
			}
		}
		if !placed {
			if !accept(nil, t) {
				return Result{Processors: -1, BaseUtil: res.BaseUtil}
			}
			procs = append(procs, task.Set{t})
		}
	}
	res.Processors = len(procs)
	util := rational.NewAcc()
	for _, proc := range procs {
		for _, t := range proc {
			util.Add(rational.New(inflated(t, proc), t.Period))
		}
	}
	res.InflatedUtil = util.Float()
	return res
}

// randomEDFFFCase draws a set that stresses the bin's invariants: periods
// from a small menu (so many are equal), periods that do not divide 10⁶
// (so Σ e′/p needs wide denominators), costs up to the period (so an
// inflation can exceed it), and cache delays up to 100 µs.
func randomEDFFFCase(r *rand.Rand) (task.Set, Params) {
	menu := []int64{7, 13, 64, 997, 1009, 3000, 7919, 30011, 50000, 999983}
	periods := menu[:2+r.Intn(len(menu)-1)]
	n := 1 + r.Intn(40)
	set := make(task.Set, n)
	delays := make(map[string]int64, n)
	for i := range set {
		per := periods[r.Intn(len(periods))]
		cost := 1 + r.Int63n(per)
		if r.Intn(3) > 0 {
			cost = 1 + r.Int63n(1+per/4) // mostly light tasks, so bins fill up
		}
		name := fmt.Sprintf("T%d", i)
		set[i] = task.MustNew(name, cost, per)
		delays[name] = r.Int63n(101)
	}
	p := Params{
		Quantum:       1,
		ContextSwitch: r.Int63n(6),
		SchedEDF:      r.Int63n(3),
		SchedPD2:      func(m, n int) int64 { return 3 },
		CacheDelay:    func(t *task.Task) int64 { return delays[t.Name] },
	}
	return set, p
}

// TestMinProcsEDFFFMatchesReference: on random sets the incremental bin
// returns a Result == the from-scratch reference, float fields included.
func TestMinProcsEDFFFMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20031))
	infeasible, wide := 0, 0
	for i := 0; i < 3000; i++ {
		set, p := randomEDFFFCase(r)
		want := refMinProcsEDFFF(set, p)
		got := MinProcsEDFFF(set, p)
		if got != want {
			t.Fatalf("case %d: MinProcsEDFFF = %+v, reference %+v\nset: %v", i, got, want, set)
		}
		if got.Processors < 0 {
			infeasible++
		}
		if _, ok := set.TotalWeight().Rat(); !ok {
			wide++
		}
	}
	// The generator must reach both the infeasible and the wide-sum
	// regimes, or the comparison proves less than it claims.
	if infeasible == 0 || wide == 0 {
		t.Errorf("generator coverage: %d infeasible, %d wide-sum cases", infeasible, wide)
	}
}

// binParams charges each task only its cache-delay inflation: e′ = e +
// max D over longer periods, with every task's D = d.
func binParams(d int64) Params {
	p := paperParams(d)
	p.SchedEDF, p.ContextSwitch = 0, 0
	return p
}

// TestInflatedEDFEqualPeriods: tasks of equal period cannot preempt each
// other, so their cache delays do not inflate each other.
func TestInflatedEDFEqualPeriods(t *testing.T) {
	b := inflatedEDFTest(binParams(10))()
	b.Add(task.MustNew("a", 50, 100))
	// Equal period: e′ = 50, Σ = 1 exactly — fits.
	if !b.Fits(task.MustNew("b", 50, 100)) {
		t.Error("an equal-period task was charged its peer's cache delay")
	}
	// Shorter period: e′ = 25 + 10, 1/2 + 35/50 > 1 — rejected, while
	// without the delay it would fit exactly.
	if b.Fits(task.MustNew("c", 25, 50)) {
		t.Error("a shorter-period task was not charged the longer task's delay")
	}
	b.Add(task.MustNew("b", 40, 100))
	if got := b.Spare().String(); got != "1/10" {
		t.Errorf("spare = %s, want 1/10", got)
	}
	// A period-50 task pays the period-100 group's delay once: e′ = 11,
	// and 11/50 exceeds the spare 1/10 (1/50 alone would fit).
	if b.Fits(task.MustNew("c", 1, 50)) {
		t.Error("11/50 fitted a spare capacity of 1/10")
	}
}

// TestInflatedEDFDelayTracking: the bin charges a candidate the largest
// delay among strictly longer periods, across period groups.
func TestInflatedEDFDelayTracking(t *testing.T) {
	delays := map[string]int64{"a": 30, "b": 70, "c": 10, "d": 0}
	p := binParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	b := inflatedEDFTest(p)()
	b.Add(task.MustNew("a", 1, 1000)) // period 1000, D 30
	b.Add(task.MustNew("b", 1, 1000)) // same period, D 70
	b.Add(task.MustNew("c", 1, 500))  // pays max(30, 70) = 70: e′ = 71
	b.Add(task.MustNew("d", 1, 500))  // equal to c: pays only the period-1000 group, 70
	// Σ e′/p = 1/1000 + 1/1000 + 71/500 + 71/500 = 286/1000.
	if got := b.Spare().String(); got != "357/500" {
		t.Errorf("spare = %s, want 357/500", got)
	}
	// A period-250 task pays max(70, 10, 0) = 70: (120+70)/250 exceeds
	// the spare 357/500, though (120+10)/250 would fit.
	if b.Fits(task.MustNew("e", 120, 250)) {
		t.Error("period-250 task was not charged the period-1000 group's delay")
	}
	if !b.Fits(task.MustNew("f", 100, 250)) {
		t.Error("period-250 task with (100+70)/250 ≤ 357/500 rejected")
	}
}

// TestInflatedEDFUndo: Undo restores the spare capacity and the delay
// maxima, so the bin answers Fits exactly as before the undone Add.
func TestInflatedEDFUndo(t *testing.T) {
	delays := map[string]int64{"a": 30, "b": 70, "c": 90}
	p := binParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	b := inflatedEDFTest(p)()
	seq := task.Set{task.MustNew("a", 100, 1000), task.MustNew("b", 100, 1000), task.MustNew("c", 50, 500)}
	// Probes never have a longer period than the bin's last task. The
	// period-250 probe fits before c joins, but not if it is charged c's
	// delay.
	probes := task.Set{task.MustNew("x", 300, 500), task.MustNew("y", 150, 500), task.MustNew("w", 120, 250)}
	type snap struct {
		spare string
		fits  string
	}
	state := func() snap {
		var f strings.Builder
		for _, pr := range probes {
			fmt.Fprint(&f, b.Fits(pr), " ")
		}
		return snap{b.Spare().String(), f.String()}
	}
	var before []snap
	for _, tk := range seq {
		before = append(before, state())
		b.Add(tk)
	}
	for i := len(seq) - 1; i >= 0; i-- {
		b.Undo()
		if got := state(); got != before[i] {
			t.Errorf("after undoing %v: %+v, want %+v", seq[i], got, before[i])
		}
	}
}

// TestInflatedEDFRejectsLongerPeriod: offering a bin a task of longer
// period than the last one added breaks the ordering the running sum
// depends on, and panics rather than answer wrongly.
func TestInflatedEDFRejectsLongerPeriod(t *testing.T) {
	b := inflatedEDFTest(binParams(10))()
	b.Add(task.MustNew("short", 1, 100))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "period 100") {
			t.Fatalf("recover() = %v, want the period-order contract panic", r)
		}
	}()
	b.Fits(task.MustNew("long", 1, 200))
}

// TestInflatedEDFInPack: the bin plugs into partition.Pack like any
// other acceptance test.
func TestInflatedEDFInPack(t *testing.T) {
	set := task.Set{task.MustNew("a", 60, 100), task.MustNew("b", 30, 100), task.MustNew("c", 20, 50)}
	a := partition.Pack(set, 0, partition.FirstFit, inflatedEDFTest(binParams(5)))
	if !a.OK() || a.NumUsed() != 2 {
		t.Fatalf("packed %v on %d processors, want 2", a.Processors, a.NumUsed())
	}
}

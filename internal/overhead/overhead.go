// Package overhead implements Section 4 of the paper: accounting for
// scheduling, context-switching, and cache-related preemption costs by
// inflating task execution requirements (Equation (3)), and the resulting
// schedulability machinery that Figures 3 and 4 are computed from.
//
// All times are in microseconds. For a task with base cost e and period p,
// quantum size q, per-invocation scheduling cost S, context-switch cost C,
// and cache-related preemption delay D(T):
//
//	EDF:  e′ = e + 2(S_EDF + C) + max_{U ∈ P_T} D(U)
//	PD²:  e′ = e + ⌈e′/q⌉·S_PD² + C + min(⌈e′/q⌉ − 1, p/q − ⌈e′/q⌉)·(C + D(T))
//
// where P_T is the set of tasks on T's processor with periods larger than
// T's. The PD² equation has e′ on both sides because the number of
// preemptions a job suffers varies with its (inflated) cost; it is solved
// by fixed-point iteration from e′ = e, which the paper observes converges
// within about five iterations.
package overhead

import (
	"fmt"

	"pfair/internal/partition"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Params carries the system-overhead constants of the Section 4
// experiments.
type Params struct {
	// Quantum is the PD² allocation quantum q in µs (the paper uses
	// 1000 µs = 1 ms).
	Quantum int64
	// ContextSwitch is C in µs (the paper fixes 5 µs, citing a 1–10 µs
	// range for then-modern processors).
	ContextSwitch int64
	// SchedEDF is S_EDF, the per-invocation cost of the EDF scheduler.
	SchedEDF int64
	// SchedPD2 returns S_PD², the per-invocation (per-slot) cost of the
	// PD² scheduler, which grows with the processor and task counts
	// (Figure 2(b)); the experiment harness feeds it measured values.
	SchedPD2 func(m, n int) int64
	// CacheDelay returns D(T), the cache-related preemption delay of a
	// task (the experiments draw it uniformly from [0, 100] µs).
	CacheDelay func(t *task.Task) int64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Quantum <= 0 {
		return fmt.Errorf("overhead: quantum %d must be positive", p.Quantum)
	}
	if p.ContextSwitch < 0 || p.SchedEDF < 0 {
		return fmt.Errorf("overhead: negative cost")
	}
	if p.SchedPD2 == nil || p.CacheDelay == nil {
		return fmt.Errorf("overhead: SchedPD2 and CacheDelay are required")
	}
	return nil
}

// InflateEDF returns the inflated cost of a task under EDF given the
// largest cache delay among the same-processor tasks it can preempt.
func InflateEDF(e int64, p Params, maxD int64) int64 {
	return e + 2*(p.SchedEDF+p.ContextSwitch) + maxD
}

// InflatePD2 solves the PD² branch of Equation (3) for a task with base
// cost e and period per (per must be a multiple of the quantum, as the
// paper assumes). It returns the inflated cost, the number of fixed-point
// iterations used, and ok=false if the inflation drives the task's weight
// above one (the task cannot be scheduled at this quantum size).
func InflatePD2(e, per int64, p Params, sPD2, d int64) (inflated int64, iters int, ok bool) {
	return InflatePD2From(e, e, per, p, sPD2, d)
}

// InflatePD2From solves the same fixed point starting the iteration from
// an explicit initial value (clamped to at least e). Warm-starting from a
// previous sweep's result cuts the iteration count — the ablation
// benchmark quantifies by how much.
func InflatePD2From(e, start, per int64, p Params, sPD2, d int64) (inflated int64, iters int, ok bool) {
	if per%p.Quantum != 0 {
		//pfair:allowpanic caller contract: Params.Validate aligns periods before any sweep
		panic(fmt.Sprintf("overhead: period %d not a multiple of quantum %d", per, p.Quantum))
	}
	pq := per / p.Quantum
	cur := start
	if cur < e {
		cur = e
	}
	for iters = 1; iters <= 64; iters++ {
		eq := rational.CeilDiv(cur, p.Quantum)
		if eq > pq {
			return 0, iters, false
		}
		preempts := eq - 1
		if pq-eq < preempts {
			preempts = pq - eq
		}
		next := e + eq*sPD2 + p.ContextSwitch + preempts*(p.ContextSwitch+d)
		if next == cur {
			return cur, iters, true
		}
		if next < cur {
			// The recurrence is not monotone (the min(E−1, P−E) term
			// shrinks as E grows), so it can oscillate. cur ≥ rhs(cur)
			// means cur already covers all overheads — a sound, slightly
			// conservative inflation.
			return cur, iters, true
		}
		cur = next
	}
	// The sequence increased 64 times without converging; with costs
	// bounded by the weight-1 rejection this is unreachable, but be
	// defensive.
	return 0, iters, false
}

// PD2Weight returns the quantum-rounded weight of an inflated task:
// ⌈e′/q⌉ quanta per p/q slots. The rounding-up of execution costs to whole
// quanta is itself a schedulability loss the paper discusses.
func PD2Weight(inflated, per int64, q int64) rational.Rat {
	return rational.New(rational.CeilDiv(inflated, q), per/q)
}

// Result summarizes a schedulability computation for one task set.
type Result struct {
	// Processors is the minimum processor count that renders the set
	// schedulable, or −1 if no finite count does (some task's inflated
	// weight exceeds one).
	Processors int
	// BaseUtil is Σ e/p before inflation.
	BaseUtil float64
	// InflatedUtil is the total utilization (EDF) or weight (PD²,
	// quantum-rounded) after inflation at the returned processor count.
	InflatedUtil float64
	// Iterations is the maximum fixed-point iteration count among the
	// tasks (PD² only).
	Iterations int
}

// MinProcsPD2 computes the minimum number of processors PD² needs for the
// set once Equation (3) inflation and quantum rounding are applied. Since
// S_PD² itself grows with the processor count, the computation iterates:
// start from the overhead-free bound and recompute until the count is
// self-consistent.
func MinProcsPD2(set task.Set, p Params) Result {
	if err := p.Validate(); err != nil {
		//pfair:allowpanic experiment parameters are static tables; Validate failures are programmer errors
		panic(err)
	}
	res := Result{BaseUtil: set.TotalUtilization()}
	m := int(set.TotalWeight().Ceil())
	if m < 1 {
		m = 1
	}
	for round := 0; round < 32; round++ {
		s := p.SchedPD2(m, len(set))
		total := rational.NewAcc()
		maxIters := 0
		for _, t := range set {
			infl, iters, ok := InflatePD2(t.Cost, t.Period, p, s, p.CacheDelay(t))
			if iters > maxIters {
				maxIters = iters
			}
			if !ok {
				return Result{Processors: -1, BaseUtil: res.BaseUtil, Iterations: iters}
			}
			total.Add(PD2Weight(infl, t.Period, p.Quantum))
		}
		need := int(total.Ceil())
		if need < 1 {
			need = 1
		}
		res.Iterations = maxIters
		res.InflatedUtil = total.Float()
		if need == m {
			res.Processors = m
			return res
		}
		if need < m {
			// Overheads only grow with m, so a smaller need at larger m
			// is self-consistent already; keep the smaller answer and
			// re-verify.
			m = need
			continue
		}
		m = need
	}
	res.Processors = m
	return res
}

// MinProcsEDFFF computes the minimum number of processors EDF-FF needs
// with inflation applied. Tasks are considered in decreasing-period order
// so that when a task is placed, the tasks it can preempt (same processor,
// larger period) — whose cache delays determine its inflation — are
// already known (Section 4).
func MinProcsEDFFF(set task.Set, p Params) Result {
	if err := p.Validate(); err != nil {
		//pfair:allowpanic experiment parameters are static tables; Validate failures are programmer errors
		panic(err)
	}
	res := Result{BaseUtil: set.TotalUtilization()}
	a := partition.Pack(set.SortByPeriodDecreasing(), 0, partition.FirstFit, inflatedEDFTest(p))
	if !a.OK() {
		return Result{Processors: -1, BaseUtil: res.BaseUtil}
	}
	res.Processors = a.NumUsed()
	// The final inflated utilization is Σ over bins of 1 − spare.
	util := rational.NewAcc().SetInt(int64(len(a.Bins)))
	for _, b := range a.Bins {
		util.SubAcc(b.Spare())
	}
	res.InflatedUtil = util.Float()
	return res
}

// inflatedEDFTest returns the acceptance test of one EDF-FF processor under
// Equation (3) inflation: a task's inflated utilization e′/p, with e′ =
// InflateEDF(e, p, max D over the bin's tasks of strictly longer period),
// must fit the bin's spare capacity 1 − Σ e′/p.
//
// Tasks must arrive in non-increasing period order, as MinProcsEDFFF
// sorts them. A candidate then never has a longer period than a task
// already in the bin, so it never changes an admitted task's inflation,
// and the bin keeps Σ e′/p exactly as a running sum. It also keeps the
// largest cache delay among tasks of period strictly longer than the last
// one added and, separately, among tasks at that last period: tasks of
// equal period cannot preempt each other, so their delays do not count
// toward each other's inflation. Fits is then one InflateEDF and one
// exact compare; Add looks up the task's own cache delay.
func inflatedEDFTest(p Params) partition.AcceptanceTest {
	return func() partition.Bin { return &edfBin{p: p, spare: rational.NewAcc().SetInt(1)} }
}

// edfState is the part of an edfBin's state one Add changes.
type edfState struct {
	period int64 // period of the last task added (0 when empty)
	longer int64 // max D over tasks of period > period
	same   int64 // max D over tasks of period == period
}

type edfBin struct {
	p     Params
	spare *rational.Acc // 1 − Σ e′/p over the bin's tasks
	edfState
	undo []edfUndo
}

// edfUndo is what Undo needs to reverse one Add.
type edfUndo struct {
	prev edfState
	u    rational.Rat // the added task's e′/p
}

// inflated returns t's inflated utilization on this bin, with ok=false
// when the inflation exceeds its period.
func (b *edfBin) inflated(t *task.Task) (rational.Rat, bool) {
	maxD := int64(0)
	switch {
	case len(b.undo) == 0:
	case t.Period > b.period:
		//pfair:allowpanic caller contract: tasks arrive in non-increasing period order, as MinProcsEDFFF sorts them
		panic(fmt.Sprintf("overhead: %v offered to an EDF-FF bin after a task of period %d", t, b.period))
	case t.Period == b.period:
		maxD = b.longer
	default:
		maxD = max(b.longer, b.same)
	}
	infl := InflateEDF(t.Cost, b.p, maxD)
	if infl > t.Period {
		return rational.Rat{}, false
	}
	return rational.New(infl, t.Period), true
}

func (b *edfBin) Fits(t *task.Task) bool {
	u, ok := b.inflated(t)
	return ok && b.spare.Cmp(u) >= 0
}

func (b *edfBin) Add(t *task.Task) {
	u, _ := b.inflated(t) // the caller's Fits has checked e′ ≤ p
	b.undo = append(b.undo, edfUndo{prev: b.edfState, u: u})
	b.spare.Sub(u)
	d := b.p.CacheDelay(t)
	if len(b.undo) == 1 || t.Period < b.period {
		b.longer = max(b.longer, b.same)
		b.period, b.same = t.Period, d
	} else {
		b.same = max(b.same, d)
	}
}

func (b *edfBin) Undo() {
	last := b.undo[len(b.undo)-1]
	b.undo = b.undo[:len(b.undo)-1]
	b.spare.Add(last.u)
	b.edfState = last.prev
}

func (b *edfBin) Spare() *rational.Acc { return b.spare }

// Losses decomposes the schedulability loss of one task set at the
// computed processor counts, for Figure 4:
//
//   - Pfair: the fraction of PD²'s allocated platform consumed by
//     overhead inflation and quantum rounding, (W′ − U)/M_PD².
//   - EDF: the fraction of EDF-FF's platform consumed by EDF inflation,
//     (U′ − U)/M_FF.
//   - FF: the fraction of EDF-FF's platform stranded by bin-packing,
//     (M_FF − U′)/M_FF.
//
// The paper does not spell out its normalization; this one reproduces the
// qualitative shape (packing loss dominating as utilization grows).
type Losses struct {
	Pfair, EDF, FF float64
}

// ComputeLosses evaluates both schemes on the set and returns the loss
// split along with the two Results.
func ComputeLosses(set task.Set, p Params) (Losses, Result, Result) {
	pd2 := MinProcsPD2(set, p)
	ff := MinProcsEDFFF(set, p)
	var l Losses
	if pd2.Processors > 0 {
		l.Pfair = (pd2.InflatedUtil - pd2.BaseUtil) / float64(pd2.Processors)
	}
	if ff.Processors > 0 {
		l.EDF = (ff.InflatedUtil - ff.BaseUtil) / float64(ff.Processors)
		l.FF = (float64(ff.Processors) - ff.InflatedUtil) / float64(ff.Processors)
	}
	return l, pd2, ff
}

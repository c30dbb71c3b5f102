// Package partition implements the task-to-processor assignment side of
// the paper's comparison (Section 3): the online bin-packing heuristics
// first-fit, best-fit, worst-fit, and next-fit, their decreasing-order
// offline variants (FFD, BFD), an exact branch-and-bound packer for small
// sets, and the analytical utilization bounds (the (M+1)/2 worst case for
// every heuristic, the Lopez et al. bound parameterized by the maximum
// task utilization, and the Oh–Baker RM-FF bound).
//
// The acceptance test is pluggable as a stateful per-processor Bin, so the
// same heuristics serve EDF partitioning (utilization ≤ 1 per processor,
// exact for implicit deadlines), RM partitioning (Liu–Layland or exact
// response-time analysis), and the overhead-inflated tests of Section 4.
package partition

import (
	"fmt"

	"pfair/internal/rational"
	"pfair/internal/rm"
	"pfair/internal/task"
)

// Bin is one processor's state under a per-processor schedulability
// test. Pack and the exact packer place each task by asking candidate
// bins whether it Fits and committing it to the chosen one with Add, so
// a test that keeps running state (a utilization sum, a largest cache
// delay) answers Fits without re-examining the tasks already placed.
type Bin interface {
	// Fits reports whether t can join the bin's tasks under the test.
	Fits(t *task.Task) bool
	// Add commits t to the bin; the caller has checked Fits.
	Add(t *task.Task)
	// Undo removes the task the last not-yet-undone Add committed,
	// restoring the bin's state exactly as it was before that Add. The
	// exact packer's backtracking undoes in LIFO order.
	Undo()
	// Spare returns the bin's remaining capacity 1 − Σu under the
	// test's own utilization measure, kept incrementally; best- and
	// worst-fit rank bins by it. The caller must not modify it.
	Spare() *rational.Acc
}

// AcceptanceTest constructs an empty bin under a per-processor
// schedulability test. Pack and the exact packer call it once per
// processor they open.
type AcceptanceTest func() Bin

// load is the state every bin in this package keeps: its tasks in
// placement order and the spare base utilization 1 − Σ e/p.
type load struct {
	tasks task.Set
	spare *rational.Acc
}

func newLoad() load { return load{spare: rational.NewAcc().SetInt(1)} }

func (l *load) Add(t *task.Task) {
	l.tasks = append(l.tasks, t)
	l.spare.Sub(t.Weight())
}

func (l *load) Undo() {
	t := l.tasks[len(l.tasks)-1]
	l.tasks = l.tasks[:len(l.tasks)-1]
	l.spare.Add(t.Weight())
}

func (l *load) Spare() *rational.Acc { return l.spare }

// edfBin keeps the running exact Σu, so Fits is one compare.
type edfBin struct{ load }

func (b *edfBin) Fits(t *task.Task) bool { return b.spare.Cmp(t.Weight()) >= 0 }

// EDFTest is the exact uniprocessor EDF test for implicit-deadline
// periodic tasks: total utilization at most one.
func EDFTest() Bin { return &edfBin{newLoad()} }

// rmBin re-runs an RM test over the bin's tasks plus the candidate; RM
// schedulability is not a sum, so there is no running state to keep
// beyond the task list.
type rmBin struct {
	load
	test func(task.Set) bool
}

func (b *rmBin) Fits(t *task.Task) bool {
	// The full slice expression makes append copy, leaving the bin's
	// tasks untouched.
	return b.test(append(b.tasks[:len(b.tasks):len(b.tasks)], t))
}

// RMLLTest is the Liu–Layland sufficient test for RM.
func RMLLTest() Bin { return &rmBin{newLoad(), rm.SchedulableLL} }

// RMExactTest is the exact response-time test for RM ([25]); using it makes
// partitioning a variable-sized bin-packing problem, the complication
// Section 3 notes EDF avoids.
func RMExactTest() Bin { return &rmBin{newLoad(), rm.Schedulable} }

// Heuristic selects the processor-choice rule.
type Heuristic int

const (
	// FirstFit assigns each task to the lowest-indexed processor that
	// accepts it.
	FirstFit Heuristic = iota
	// BestFit chooses, among accepting processors, the one with minimal
	// spare capacity after the addition.
	BestFit
	// WorstFit chooses the accepting processor with maximal spare
	// capacity after the addition.
	WorstFit
	// NextFit only ever tries the most recently used processor, moving
	// forward when it rejects.
	NextFit
)

func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// Assignment is a partition of tasks onto processors.
type Assignment struct {
	// Processors holds the tasks bound to each processor, in placement
	// order.
	Processors []task.Set
	// Bins holds each processor's acceptance-test state, parallel to
	// Processors.
	Bins []Bin
	// Unplaced lists tasks no processor accepted (empty on success).
	Unplaced task.Set
}

// OK reports whether every task was placed.
func (a *Assignment) OK() bool { return len(a.Unplaced) == 0 }

// NumUsed returns the number of non-empty processors.
func (a *Assignment) NumUsed() int {
	n := 0
	for _, p := range a.Processors {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// Pack assigns tasks to at most m processors (m ≤ 0 means unbounded,
// opening processors on demand — the mode used to find the minimum
// processor count). Tasks are considered in the order given; pre-sort with
// task.Set.SortByUtilizationDecreasing for FFD/BFD or
// SortByPeriodDecreasing for the Section 4 overhead-aware placement.
func Pack(set task.Set, m int, h Heuristic, newBin AcceptanceTest) *Assignment {
	a := &Assignment{}
	if m > 0 {
		a.Processors = make([]task.Set, m)
		a.Bins = make([]Bin, m)
		for i := range a.Bins {
			a.Bins[i] = newBin()
		}
	}
	last := 0 // next-fit cursor
	for _, t := range set {
		idx := -1
		switch h {
		case FirstFit:
			for i, b := range a.Bins {
				if b.Fits(t) {
					idx = i
					break
				}
			}
		case NextFit:
			for i := last; i < len(a.Bins); i++ {
				if a.Bins[i].Fits(t) {
					idx = i
					break
				}
			}
		case BestFit, WorstFit:
			// Every candidate loses the same u(t), so ranking the bins'
			// spare capacity before the addition ranks it after.
			for i, b := range a.Bins {
				if !b.Fits(t) {
					continue
				}
				better := idx < 0 ||
					(h == BestFit && b.Spare().CmpAcc(a.Bins[idx].Spare()) < 0) ||
					(h == WorstFit && a.Bins[idx].Spare().CmpAcc(b.Spare()) < 0)
				if better {
					idx = i
				}
			}
		}
		if idx < 0 && m <= 0 {
			// Open a new processor, unless the task does not fit even an
			// empty one (possible under inflated or RM tests).
			if b := newBin(); b.Fits(t) {
				a.Bins = append(a.Bins, b)
				a.Processors = append(a.Processors, nil)
				idx = len(a.Bins) - 1
			}
		}
		if idx < 0 {
			a.Unplaced = append(a.Unplaced, t)
			continue
		}
		a.Bins[idx].Add(t)
		a.Processors[idx] = append(a.Processors[idx], t)
		if h == NextFit {
			last = idx
		}
	}
	return a
}

// MinProcessors returns the number of processors the heuristic needs to
// place every task (tasks considered in the given order), or ok=false if
// some task fits on no processor at all.
func MinProcessors(set task.Set, h Heuristic, newBin AcceptanceTest) (int, bool) {
	a := Pack(set, 0, h, newBin)
	if !a.OK() {
		return 0, false
	}
	return a.NumUsed(), true
}

// MinProcessorsExact finds the true minimum number of processors by
// branch-and-bound over all assignments, with the given acceptance test.
// It is exponential and intended for small sets (≲ 20 tasks); it proves
// the heuristics sub-optimal in tests. Tasks are pre-sorted by decreasing
// utilization, and symmetry is broken by allowing each task into at most
// one currently-empty processor.
func MinProcessorsExact(set task.Set, newBin AcceptanceTest) (int, bool) {
	sorted := set.SortByUtilizationDecreasing()
	// Upper bound from FFD; lower bound from total utilization.
	best, ok := MinProcessors(sorted, FirstFit, newBin)
	if !ok {
		return 0, false
	}
	lower := int(set.TotalWeight().Ceil())
	if best == lower {
		return best, true
	}
	// pool[:open] are the open bins; a bin closed by backtracking is
	// empty again and is reused when the search reopens one.
	var pool []Bin
	open := 0
	var dfs func(i int) bool
	found := best
	dfs = func(i int) bool {
		if open >= found {
			return false // already no better than the best known
		}
		if i == len(sorted) {
			found = open
			return found == lower
		}
		t := sorted[i]
		for _, b := range pool[:open] {
			if b.Fits(t) {
				b.Add(t)
				if dfs(i + 1) {
					return true
				}
				b.Undo()
			}
		}
		// Symmetry breaking: opening any empty processor is equivalent.
		if open+1 < found {
			if open == len(pool) {
				pool = append(pool, newBin())
			}
			if b := pool[open]; b.Fits(t) {
				b.Add(t)
				open++
				if dfs(i + 1) {
					return true
				}
				open--
				b.Undo()
			}
		}
		return false
	}
	dfs(0)
	return found, true
}

// LopezBound returns the worst-case achievable utilization of EDF
// partitioning on m processors when every task's utilization is at most
// umax (Lopez et al. [27]): (β·m + 1)/(β + 1) with β = ⌊1/umax⌋. Any task
// set with total utilization at most the bound is schedulable by EDF-FF;
// with umax = 1 it degenerates to the (m+1)/2 worst case of Section 3.
// A umax outside (0, 1] — reachable from generated task parameters, e.g.
// the maximum utilization of an empty set — is reported as an error.
func LopezBound(m int, umax rational.Rat) (rational.Rat, error) {
	if m < 1 {
		return rational.Zero(), fmt.Errorf("partition: LopezBound needs m ≥ 1, got %d", m)
	}
	if umax.Sign() <= 0 || rational.One().Less(umax) {
		return rational.Zero(), fmt.Errorf("partition: umax %v outside (0, 1]", umax)
	}
	beta := rational.One().Div(umax).Floor()
	return rational.New(beta*int64(m)+1, beta+1), nil
}

// OhBakerBound returns the RM-FF guaranteed utilization m·(2^{1/2} − 1) ≈
// 0.41·m of Oh and Baker [30], the figure the paper quotes when arguing
// that partitioning with RM wastes more than half the platform.
func OhBakerBound(m int) float64 {
	//pfair:allowfloat √2 − 1 is irrational; the bound is reporting-only, never an admission test
	return float64(m) * 0.41421356237309503 // √2 − 1
}

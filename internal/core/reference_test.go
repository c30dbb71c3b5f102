package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pfair/internal/obs"
	"pfair/internal/task"
)

// This file checks the ready queue against a linear-scan reference: in
// every slot the scheduler must select exactly the m minima, under the
// priority order less, of the live subtasks eligible in that slot —
// gathered by scanning every task rather than by asking the queue. The
// reference runs inside the engine's Pick phase (after leaves, rejoins
// and releases have settled the slot's eligible set), through a test
// policy that wraps the scheduler.

// refPick is the scheduler with its Pick phase checked against the
// linear scan. It records, per slot in which more than m subtasks were
// eligible, the tie-break event the selection boundary calls for: the
// last subtask selected against the first one left out (Kind EvNone
// when no b-bit or group tie separated them).
type refPick struct {
	*Scheduler
	t        *testing.T
	scan     []*tstate
	boundary map[int64]obs.Event
}

// newRefScheduler builds a scheduler whose engine drives it through
// refPick.
func newRefScheduler(t *testing.T, m int, alg Algorithm, opts Options) (*Scheduler, *refPick) {
	t.Helper()
	s := NewScheduler(m, alg, opts)
	r := &refPick{Scheduler: s, t: t, boundary: make(map[int64]obs.Event)}
	s.eng.Reset(r)
	return s, r
}

// Pick computes the reference selection, runs the real Pick, and fails
// the test on any difference in membership or order.
func (r *refPick) Pick(t int64) {
	want := r.scan[:0]
	for _, st := range r.order {
		if !st.departed && st.elig <= t {
			want = append(want, st)
		}
	}
	sort.Slice(want, func(i, j int) bool { return less(r.alg, &want[i].pr, &want[j].pr) })
	r.scan = want
	if len(want) > r.m {
		r.boundary[t] = boundaryTie(r.alg, t, want[r.m-1], want[r.m])
		want = want[:r.m]
	}

	r.Scheduler.Pick(t)
	got := r.selBuf
	if len(got) != len(want) {
		r.t.Fatalf("slot %d: selected %d subtasks, linear scan finds %d eligible minima", t, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			r.t.Fatalf("slot %d: selection %v, linear scan %v", t, names(got), names(want))
		}
	}
}

// boundaryTie is the tie-break event a slot whose selection ends with
// last and whose first left-out subtask is next must narrate.
func boundaryTie(alg Algorithm, t int64, last, next *tstate) obs.Event {
	e := obs.Event{Slot: t, Kind: obs.EvNone, Task: last.obsID, Proc: -1, A: int64(next.obsID), B: last.deadline}
	if last.deadline == next.deadline {
		switch _, why := lessWhy(alg, &last.pr, &next.pr); why {
		case byBBit:
			e.Kind = obs.EvTieBreakB
		case byGroup:
			e.Kind = obs.EvTieBreakGroup
		}
	}
	return e
}

func names(sts []*tstate) []string {
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = fmt.Sprintf("%s/%d", st.task.Name, st.index)
	}
	return out
}

// assignString flattens one slot's assignment vector; processor order is
// part of the schedule, so it is kept.
func assignString(t int64, assigned []Assignment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", t)
	for _, a := range assigned {
		fmt.Fprintf(&b, " %d=%s/%d", a.Proc, a.Task, a.Subtask)
	}
	return b.String()
}

// streamOf collects a scheduler's per-slot assignment stream.
func streamOf(s *Scheduler) *[]string {
	var got []string
	s.OnSlot(func(tt int64, assigned []Assignment) {
		got = append(got, assignString(tt, assigned))
	})
	return &got
}

// sameStream fails the test at the first slot where two runs differ.
func sameStream(t *testing.T, what string, plain, traced []string) {
	t.Helper()
	if len(plain) != len(traced) {
		t.Fatalf("%s: %d slots without a recorder, %d with", what, len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("%s: slot %d diverges\nplain:  %s\ntraced: %s", what, i, plain[i], traced[i])
		}
	}
}

// TestPickMatchesLinearScan fuzzes task sets under every algorithm, with
// and without ERfair, and checks every slot's selection against the
// linear scan, both with and without a recorder attached; the two runs
// must also produce identical assignment streams.
func TestPickMatchesLinearScan(t *testing.T) {
	algs := []Algorithm{PD2, PD, PF, EPDF, PD2NoBBit}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7 + int64(alg)))
			for trial := 0; trial < 20; trial++ {
				m := 1 + r.Intn(4)
				set := randomFeasibleSet(r, m, 3+r.Intn(8), 20)
				if len(set) == 0 {
					continue
				}
				opts := Options{EarlyRelease: trial%3 == 2}
				horizon := set.Hyperperiod()
				if horizon > 2000 {
					horizon = 2000
				}
				run := func(traced bool) []string {
					s, _ := newRefScheduler(t, m, alg, opts)
					if traced {
						s.Observe(obs.NewRecorder(1<<12), obs.NewSchedulerMetrics(nil))
					}
					got := streamOf(s)
					for _, tk := range set {
						if err := s.Join(tk); err != nil {
							t.Fatalf("join %v: %v", tk, err)
						}
					}
					s.RunUntil(horizon)
					return *got
				}
				sameStream(t, fmt.Sprintf("trial %d (m=%d, %+v, set=%v)", trial, m, opts, set), run(false), run(true))
			}
		})
	}
}

// TestPickMatchesLinearScanDynamic repeats the check across mid-run
// leaves, a re-join under a departed name, and upward and downward
// reweights, which remove entries from the middle of the ready queue
// and the pending wheel.
func TestPickMatchesLinearScanDynamic(t *testing.T) {
	run := func(t *testing.T, traced bool) []string {
		s, _ := newRefScheduler(t, 2, PD2, Options{})
		if traced {
			s.Observe(obs.NewRecorder(1<<12), obs.NewSchedulerMetrics(nil))
		}
		got := streamOf(s)
		join := func(name string, e, p int64) {
			if err := s.Join(task.MustNew(name, e, p)); err != nil {
				t.Fatalf("join %s: %v", name, err)
			}
		}
		join("A", 2, 3)
		join("B", 3, 7)
		join("C", 1, 5)
		s.RunUntil(40)
		at, err := s.Leave("B")
		if err != nil {
			t.Fatalf("leave B: %v", err)
		}
		s.RunUntil(at + 1)
		join("B", 2, 9)
		s.RunUntil(80)
		join("D", 1, 6)
		if _, err := s.Reweight("A", 1, 4); err != nil {
			t.Fatalf("reweight A down: %v", err)
		}
		s.RunUntil(120)
		if _, err := s.Reweight("C", 2, 5); err != nil {
			t.Fatalf("reweight C up: %v", err)
		}
		s.RunUntil(200)
		return *got
	}
	sameStream(t, "dynamic script", run(t, false), run(t, true))
}

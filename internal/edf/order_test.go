package edf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// jobOrders are the simulator's two constructors: one per job order.
var jobOrders = []struct {
	name string
	new  func(opts ...engine.Option) *Simulator
}{
	{"edf", NewSimulator},
	{"rm", NewRateMonotonic},
}

// TestReleaseBatchNameOrder: tasks sharing a release instant emit
// EvRelease in name order, whatever order they were added in and
// whichever job order ranks them.
func TestReleaseBatchNameOrder(t *testing.T) {
	const n, period = 300, 1000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("T%03d", i)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, o := range jobOrders {
		t.Run(o.name, func(t *testing.T) {
			rec := obs.NewRecorder(1 << 14)
			s := o.new(engine.WithRecorder(rec))
			for _, name := range names {
				mustAdd(t, s, Config{Task: task.MustNew(name, 1, period)})
			}
			if err := s.Run(2*period + 1); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring too small: dropped %d", rec.Dropped())
			}
			batches := make(map[int64][]string)
			for _, e := range rec.Events() {
				if e.Kind == obs.EvRelease {
					batches[e.Slot] = append(batches[e.Slot], rec.TaskName(e.Task))
				}
			}
			for _, at := range []int64{0, period, 2 * period} {
				got := batches[at]
				if len(got) != n {
					t.Fatalf("t=%d: %d releases, want %d", at, len(got), n)
				}
				for i := 1; i < n; i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("t=%d: release %d is %s after %s, want name order", at, i, got[i], got[i-1])
					}
				}
			}
		})
	}
}

// TestHeapTimers runs the release-timer heap, which a task with a period
// above calq.DefaultSpanCap selects, against the wheel, which a period
// of exactly the cap keeps. Over a horizon well below the cap the long
// task releases one job that ranks last under either job order, so the
// two runs must agree on Stats and on every schedule and preemption —
// whether the long task is added at construction or joins mid-run,
// which migrates the armed timers from the wheel to the heap. A leave
// after that exercises disarming a heap timer.
func TestHeapTimers(t *testing.T) {
	const horizon = 1000
	short := []*task.Task{task.MustNew("A", 1, 4), task.MustNew("B", 2, 10), task.MustNew("C", 1, 7)}
	run := func(t *testing.T, newSim func(...engine.Option) *Simulator, period int64, midRun bool) (Stats, []obs.Event) {
		rec := obs.NewRecorder(1 << 14)
		s := newSim(engine.WithRecorder(rec))
		for _, tk := range short {
			mustAdd(t, s, Config{Task: tk})
		}
		long := task.MustNew("L", 40, period)
		if midRun {
			if err := s.Engine().Run(100); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(admission.Join(long)); err != nil {
				t.Fatalf("join L: %v", err)
			}
		} else {
			mustAdd(t, s, Config{Task: long})
		}
		if want := period > calq.DefaultSpanCap; s.relHeap != want {
			t.Fatalf("period %d: heap timers = %v, want %v", period, s.relHeap, want)
		}
		if err := s.Engine().Run(300); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(admission.Leave("B")); err != nil {
			t.Fatalf("leave B: %v", err)
		}
		if err := s.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("ring too small: dropped %d", rec.Dropped())
		}
		var sched []obs.Event
		for _, e := range rec.Events() {
			if e.Kind == obs.EvSchedule || e.Kind == obs.EvPreempt {
				sched = append(sched, e)
			}
		}
		return s.Stats(), sched
	}
	for _, o := range jobOrders {
		for _, midRun := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/midrun=%v", o.name, midRun), func(t *testing.T) {
				wStats, wSched := run(t, o.new, calq.DefaultSpanCap, midRun)
				hStats, hSched := run(t, o.new, calq.DefaultSpanCap+1, midRun)
				if !reflect.DeepEqual(wStats, hStats) {
					t.Errorf("stats diverge: wheel %+v, heap %+v", wStats, hStats)
				}
				if !reflect.DeepEqual(wSched, hSched) {
					t.Errorf("schedule diverges: wheel %d events, heap %d", len(wSched), len(hSched))
				}
				if wStats.Preemptions == 0 || len(wStats.Misses) != 0 {
					t.Errorf("want preemptions and no misses, got %+v", wStats)
				}
			})
		}
	}
}

// TestRateMonotonicRefusesServers: CBS is an EDF construct, so the
// rate-monotonic simulator refuses it through Add and through Submit.
func TestRateMonotonicRefusesServers(t *testing.T) {
	s := NewRateMonotonic()
	if err := s.Add(Config{Task: task.MustNew("A", 1, 4), Server: &CBS{Budget: 1, Period: 4}}); err == nil {
		t.Error("Add accepted a CBS")
	}
	if _, err := s.Submit(admission.JoinModel(task.MustNew("B", 1, 4), CBS{Budget: 1, Period: 4})); err == nil {
		t.Error("Submit accepted a join model")
	}
	if got := s.AdmissionRejects(); got != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", got)
	}
}

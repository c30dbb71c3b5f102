package core

import (
	"math/rand"
	"strconv"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// lagScan is the oracle for the folded max-|lag| gauges: the per-slot
// scan the scheduler once ran in Account, kept here as a test-local copy.
// It evaluates every live task's |lag| numerator at each boundary τ it is
// given and keeps the maximum per observability id (per incarnation).
//
// The gauge contract it pins is: while a metrics block is attached, an
// incarnation's gauge is the maximum of |lag(τ)| over every integer
// boundary τ from its start — its join, or the attach slot if it was
// admitted before the attach — to its end — its departure slot, or Now()
// when FinishMisses closes the run. The test wiring feeds the scan
// exactly that set: τ = Now() at the attach, then τ = t + 1 after every
// slot t (a departure at slot t is covered by the slot t − 1 scan, and
// FinishMisses' Now() by the last slot's).
type lagScan struct {
	s   *Scheduler
	max map[int32]int64
}

func (l *lagScan) at(now int64) {
	for _, st := range l.s.order {
		if st.departed || st.obsID < 0 {
			continue
		}
		num := st.task.Cost*(now-st.joinedAt) - st.allocated*st.task.Period
		if num < 0 {
			num = -num
		}
		if num > l.max[st.obsID] {
			l.max[st.obsID] = num
		}
	}
}

// attachScan attaches the observers to s and wires the scan to the same
// boundaries the gauge contract covers: the attach slot now, and the end
// of every later slot through OnSlot.
func attachScan(s *Scheduler, rec *obs.Recorder, met *obs.SchedulerMetrics) *lagScan {
	scan := &lagScan{s: s, max: map[int32]int64{}}
	s.Observe(rec, met)
	scan.at(s.Now())
	s.OnSlot(func(t int64, _ []Assignment) { scan.at(t + 1) })
	return scan
}

// seriesValue returns the exported value of the max-|lag| series for a
// task name, and whether the series exists.
func seriesValue(met *obs.SchedulerMetrics, name string) (int64, bool) {
	labels := `task="` + obs.EscapeLabel(name) + `"`
	for _, smp := range met.Registry().Snapshot() {
		if smp.Family == "pfair_task_max_abs_lag_num" && smp.Labels == labels {
			return smp.Value, true
		}
	}
	return 0, false
}

// checkLagFold compares every incarnation's folded gauge with the scan,
// each name's exported series with its latest incarnation's gauge, and —
// when a recorder is attached and kept every event — the extremum events
// with the gauges and the ring's slot order.
func checkLagFold(t *testing.T, label string, s *Scheduler, scan *lagScan, rec *obs.Recorder, met *obs.SchedulerMetrics) {
	t.Helper()
	latest := map[string]*tstate{}
	for _, st := range s.order {
		if st.obsID < 0 {
			continue
		}
		latest[st.task.Name] = st
		tm := met.Task(st.obsID)
		if tm == nil {
			t.Fatalf("%s: %s (id %d) has no instruments", label, st.task.Name, st.obsID)
		}
		if got, want := tm.MaxAbsLagNum.Value(), scan.max[st.obsID]; got != want {
			t.Errorf("%s: %s (id %d, %d/%d, joined %d, departed %v): folded max |lag| num %d, scan %d",
				label, st.task.Name, st.obsID, st.task.Cost, st.task.Period, st.joinedAt, st.departed, got, want)
		}
		if tm.LagDen != st.task.Period {
			t.Errorf("%s: %s (id %d): LagDen %d, period %d", label, st.task.Name, st.obsID, tm.LagDen, st.task.Period)
		}
	}
	for name, st := range latest {
		got, ok := seriesValue(met, name)
		if want := met.Task(st.obsID).MaxAbsLagNum.Value(); !ok || got != want {
			t.Errorf("%s: series for %s = %d (present %v), latest incarnation's gauge %d", label, name, got, ok, want)
		}
	}
	if rec == nil {
		return
	}
	last := map[int32]int64{}
	prev := int64(-1)
	for _, e := range rec.Events() {
		if e.Slot < prev {
			t.Fatalf("%s: ring out of slot order: %+v after slot %d", label, e, prev)
		}
		prev = e.Slot
		if e.Kind != obs.EvLagExtremum {
			continue
		}
		if e.A <= last[e.Task] {
			t.Fatalf("%s: extremum for id %d not increasing: %d after %d", label, e.Task, e.A, last[e.Task])
		}
		last[e.Task] = e.A
	}
	if rec.Dropped() != 0 {
		return
	}
	for _, st := range s.order {
		if st.obsID < 0 {
			continue
		}
		if got, want := last[st.obsID], met.Task(st.obsID).MaxAbsLagNum.Value(); got != want {
			t.Errorf("%s: %s (id %d): last extremum event %d, gauge %d", label, st.task.Name, st.obsID, got, want)
		}
	}
}

// TestLagFoldMatchesScan is the differential test for the boundary fold:
// on random sets with join, leave and reweight churn, ERfair, IS delays,
// a processor failure and an attach at slot 0 or mid-run, every
// incarnation's folded gauge equals the per-slot scan's after
// FinishMisses.
func TestLagFoldMatchesScan(t *testing.T) {
	periods := []int64{2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20}
	const horizon = 400
	for seed := int64(1); seed <= 30; seed++ {
		for _, er := range []bool{false, true} {
			label := "seed " + strconv.FormatInt(seed, 10)
			if er {
				label += " erfair"
			}
			rng := rand.New(rand.NewSource(seed))
			m := 2 + rng.Intn(3)
			s := NewScheduler(m, PD2, Options{EarlyRelease: er})
			var rec *obs.Recorder
			if rng.Intn(2) == 0 {
				rec = obs.NewRecorder(1 << 17)
			}
			met := obs.NewSchedulerMetrics(nil)
			attachAt := int64(0)
			if rng.Intn(3) != 0 {
				attachAt = 1 + rng.Int63n(horizon/2)
			}
			failAt := rng.Int63n(horizon)
			newTask := func(name string) *task.Task {
				p := periods[rng.Intn(len(periods))]
				return task.MustNew(name, 1+rng.Int63n(p), p)
			}
			join := func(name string) {
				tk := newTask(name)
				if rng.Intn(3) == 0 {
					// An IS task: whole jobs arrive up to two slots late.
					gaps := []int64{0, rng.Int63n(3), 0, rng.Int63n(3)}
					_, _ = s.Submit(admission.JoinModel(tk, NewSporadicModel(tk.Cost, func(job int64) int64 { return gaps[job%4] })))
					return
				}
				_, _ = s.Submit(admission.Join(tk))
			}
			var scan *lagScan
			if attachAt == 0 {
				scan = attachScan(s, rec, met)
			}
			for i := 0; i < 2*m; i++ {
				join("T" + strconv.Itoa(i))
			}
			next := 0
			for s.Now() < horizon {
				now := s.Now()
				if now == attachAt && scan == nil {
					scan = attachScan(s, rec, met)
				}
				if now == failAt && s.Processors() > 1 {
					s.FailProcessors(1)
				}
				if live := s.Tasks(); rng.Intn(4) == 0 {
					switch k := rng.Intn(3); {
					case k == 0 || len(live) == 0:
						join("J" + strconv.Itoa(next))
						next++
					case k == 1:
						_, _ = s.Submit(admission.Leave(live[rng.Intn(len(live))]))
					default:
						tk := newTask("")
						_, _ = s.Submit(admission.Reweight(live[rng.Intn(len(live))], tk.Cost, tk.Period))
					}
				}
				s.Step()
			}
			s.FinishMisses(horizon)
			checkLagFold(t, label, s, scan, rec, met)
		}
	}
}

// TestLagGaugeRestartsOnReweight: a core reweight re-joins the task under
// a fresh id and a new period, so the name's max-|lag| series restarts
// with the new incarnation instead of keeping the larger numerator of
// two incarnations over different denominators, while the first
// incarnation's instruments keep its own extremum. The run ends one slot
// after the reweight lands, before the new incarnation first runs: its
// own extremum (1/7) is then below the first incarnation's (4/5), which
// a shared series would still report.
func TestLagGaugeRestartsOnReweight(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	met := obs.NewSchedulerMetrics(nil)
	scan := attachScan(s, nil, met)
	for _, tk := range []*task.Task{task.MustNew("A", 2, 5), task.MustNew("B", 1, 2)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	s.RunUntil(20)
	first := s.tasks["A"]
	at, err := s.Reweight("A", 1, 7)
	if err != nil {
		t.Fatalf("reweight: %v", err)
	}
	s.RunUntil(at + 1)
	s.FinishMisses(s.Now())
	second := s.tasks["A"]
	if second == first || second.task.Period != 7 {
		t.Fatalf("reweight did not re-join A under new parameters")
	}
	oldMax, newMax := scan.max[first.obsID], scan.max[second.obsID]
	if oldMax <= newMax {
		t.Fatalf("scenario does not tell the incarnations apart: old max %d/5, new max %d/7", oldMax, newMax)
	}
	if got := met.Task(first.obsID).MaxAbsLagNum.Value(); got != oldMax {
		t.Errorf("first incarnation's gauge %d/5, its own extremum %d/5", got, oldMax)
	}
	if got := met.Task(second.obsID).MaxAbsLagNum.Value(); got != newMax {
		t.Errorf("second incarnation's gauge %d/7, its own extremum %d/7", got, newMax)
	}
	if got, ok := seriesValue(met, "A"); !ok || got != newMax {
		t.Errorf("exported series for A = %d (present %v), want the new incarnation's %d/7", got, ok, newMax)
	}
	checkLagFold(t, "reweight", s, scan, nil, met)
}

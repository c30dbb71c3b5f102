package core

import (
	"fmt"
	"testing"

	"pfair/internal/obs"
	"pfair/internal/task"
)

// countKinds tallies the recorded events by kind.
func countKinds(rec *obs.Recorder) map[obs.EventKind]int64 {
	counts := make(map[obs.EventKind]int64)
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	return counts
}

// TestObserveEventsMatchStats cross-checks the trace stream and metrics
// block against the scheduler's own Stats counters: every counted action
// must have exactly one corresponding event, so the trace is a faithful
// expansion of the aggregate statistics.
func TestObserveEventsMatchStats(t *testing.T) {
	s := newLoadedScheduler(t, 3, 20, 2.7, 7)
	rec := obs.NewRecorder(1 << 18)
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	s.RunUntil(1000)

	if rec.Dropped() != 0 {
		t.Fatalf("ring too small for the run: dropped %d events", rec.Dropped())
	}
	st := s.Stats()
	counts := countKinds(rec)

	if counts[obs.EvJoin] != int64(len(s.Tasks())) {
		t.Errorf("EvJoin count = %d, want %d", counts[obs.EvJoin], len(s.Tasks()))
	}
	if counts[obs.EvSchedule] != st.Allocations {
		t.Errorf("EvSchedule count = %d, Stats.Allocations = %d", counts[obs.EvSchedule], st.Allocations)
	}
	if counts[obs.EvMigrate] != st.Migrations {
		t.Errorf("EvMigrate count = %d, Stats.Migrations = %d", counts[obs.EvMigrate], st.Migrations)
	}
	if counts[obs.EvPreempt] != st.Preemptions {
		t.Errorf("EvPreempt count = %d, Stats.Preemptions = %d", counts[obs.EvPreempt], st.Preemptions)
	}
	if counts[obs.EvRelease] == 0 {
		t.Error("no release events recorded")
	}
	// Idle + schedule events must tile the m×slots grid exactly.
	if got := counts[obs.EvIdle] + counts[obs.EvSchedule]; got != int64(s.Processors())*st.Slots {
		t.Errorf("idle(%d)+schedule(%d) = %d, want m·slots = %d",
			counts[obs.EvIdle], counts[obs.EvSchedule], got, int64(s.Processors())*st.Slots)
	}

	for name, pair := range map[string][2]int64{
		"slots":            {met.Slots.Value(), st.Slots},
		"allocations":      {met.Allocations.Value(), st.Allocations},
		"context switches": {met.ContextSwitches.Value(), st.ContextSwitches},
		"migrations":       {met.Migrations.Value(), st.Migrations},
		"preemptions":      {met.Preemptions.Value(), st.Preemptions},
		"misses":           {met.Misses.Value(), int64(len(st.Misses))},
	} {
		if pair[0] != pair[1] {
			t.Errorf("metric %s = %d, Stats says %d", name, pair[0], pair[1])
		}
	}
	if met.Occupancy.Count() != st.Slots {
		t.Errorf("occupancy histogram has %d samples, want one per slot (%d)", met.Occupancy.Count(), st.Slots)
	}
	if met.Occupancy.Sum() != st.Allocations {
		t.Errorf("occupancy histogram sum = %d, want Stats.Allocations = %d", met.Occupancy.Sum(), st.Allocations)
	}

	// Per-task allocations must sum to the total.
	var perTask int64
	for _, id := range rec.TaskIDs() {
		if tm := met.Task(id); tm != nil {
			perTask += tm.Allocations.Value()
		}
	}
	if perTask != st.Allocations {
		t.Errorf("per-task allocations sum to %d, total is %d", perTask, st.Allocations)
	}
}

// TestObserveMisses checks the pinned EPDF counterexample produces
// deadline-miss events agreeing with Stats.Misses, with the tardiness
// histogram fed once per miss.
func TestObserveMisses(t *testing.T) {
	set := task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
	s := NewScheduler(5, EPDF, Options{})
	rec := obs.NewRecorder(1 << 16)
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	s.RunUntil(2 * set.Hyperperiod())

	st := s.Stats()
	if len(st.Misses) == 0 {
		t.Fatal("EPDF counterexample no longer misses; test needs a new workload")
	}
	counts := countKinds(rec)
	if counts[obs.EvMiss] != int64(len(st.Misses)) {
		t.Errorf("EvMiss count = %d, Stats has %d misses", counts[obs.EvMiss], len(st.Misses))
	}
	if met.Misses.Value() != int64(len(st.Misses)) {
		t.Errorf("miss counter = %d, want %d", met.Misses.Value(), len(st.Misses))
	}
	if met.Tardiness.Count() != int64(len(st.Misses)) {
		t.Errorf("tardiness histogram has %d samples, want %d", met.Tardiness.Count(), len(st.Misses))
	}
	// PD² under observation still schedules the same set cleanly — the
	// instrumented comparator must not change the priority order.
	s2 := NewScheduler(5, PD2, Options{})
	s2.Observe(obs.NewRecorder(1<<16), obs.NewSchedulerMetrics(nil))
	for _, tk := range set {
		if err := s2.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	s2.RunUntil(2 * set.Hyperperiod())
	if misses := s2.Stats().Misses; len(misses) != 0 {
		t.Errorf("observed PD² missed on the feasible counterexample: %+v", misses[0])
	}
}

// TestObserveTieBreaks: on a fully utilized set PD² must resolve at least
// one deadline tie via the b-bit rule. Tie-breaks are narrated at
// decision level: at most one per slot, naming the last subtask selected
// as the winner and the first one left out as the loser, and emitted
// exactly when those two share a deadline that the b-bit or group rule
// decided. The counters equal the event counts, and a metrics-only run
// counts the same ties as a traced one.
func TestObserveTieBreaks(t *testing.T) {
	set := task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
	run := func(rec *obs.Recorder) (*obs.SchedulerMetrics, *refPick) {
		s, ref := newRefScheduler(t, 5, PD2, Options{})
		met := obs.NewSchedulerMetrics(nil)
		s.Observe(rec, met)
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		s.RunUntil(set.Hyperperiod())
		return met, ref
	}
	rec := obs.NewRecorder(1 << 20)
	met, ref := run(rec)

	counts := countKinds(rec)
	if counts[obs.EvTieBreakB] == 0 {
		t.Error("no b-bit tie-break events on a fully utilized PD² run")
	}
	if met.TieBreakB.Value() != counts[obs.EvTieBreakB] {
		t.Errorf("b-bit counter = %d, %d events recorded", met.TieBreakB.Value(), counts[obs.EvTieBreakB])
	}
	if met.TieBreakGroup.Value() != counts[obs.EvTieBreakGroup] {
		t.Errorf("group counter = %d, %d events recorded", met.TieBreakGroup.Value(), counts[obs.EvTieBreakGroup])
	}
	if met.HeapCmps.Value() == 0 {
		t.Error("heap comparison counter never incremented")
	}
	ties := map[int64]obs.Event{}
	for _, e := range rec.Events() {
		if e.Kind != obs.EvTieBreakB && e.Kind != obs.EvTieBreakGroup {
			continue
		}
		if _, dup := ties[e.Slot]; dup {
			t.Fatalf("slot %d narrates more than one tie-break: %+v", e.Slot, e)
		}
		ties[e.Slot] = e
	}
	checked := 0
	for slot, want := range ref.boundary {
		e, ok := ties[slot]
		delete(ties, slot)
		switch {
		case want.Kind == obs.EvNone && ok:
			t.Errorf("slot %d: tie-break event %+v, but the selection boundary was not a b-bit/group tie", slot, e)
		case want.Kind != obs.EvNone && (!ok || e != want):
			t.Errorf("slot %d: tie-break event %+v (present=%v), want %+v", slot, e, ok, want)
		case ok:
			checked++
		}
	}
	for slot, e := range ties {
		t.Errorf("slot %d: tie-break event %+v with fewer than m+1 eligible subtasks", slot, e)
	}
	if checked == 0 {
		t.Error("no tie-break event matched a selection boundary")
	}

	metOnly, _ := run(nil)
	if metOnly.TieBreakB.Value() != met.TieBreakB.Value() || metOnly.TieBreakGroup.Value() != met.TieBreakGroup.Value() {
		t.Errorf("metrics-only run counts %d/%d b-bit/group ties, traced run %d/%d",
			metOnly.TieBreakB.Value(), metOnly.TieBreakGroup.Value(), met.TieBreakB.Value(), met.TieBreakGroup.Value())
	}
}

// TestObserveJoinLeave checks the dynamic-task events: a departing task
// emits EvLeave with its total allocation, and its instruments stop
// counting afterwards.
func TestObserveJoinLeave(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	rec := obs.NewRecorder(1 << 12)
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	s.RunUntil(6)
	when, err := s.Leave("B")
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	s.RunUntil(when + 2)

	var leaves []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.EvLeave {
			leaves = append(leaves, e)
		}
	}
	if len(leaves) != 1 {
		t.Fatalf("got %d EvLeave events, want 1", len(leaves))
	}
	if got := rec.TaskName(leaves[0].Task); got != "B" {
		t.Errorf("leave event names task %q, want B", got)
	}
	if leaves[0].A <= 0 {
		t.Errorf("leave event allocation = %d, want > 0", leaves[0].A)
	}
}

// TestObserveLagExtrema: the max-|lag| gauge must equal the numerator of
// the last extremum event for the same task, and extrema must be
// monotonically increasing per task.
func TestObserveLagExtrema(t *testing.T) {
	s := newLoadedScheduler(t, 2, 10, 1.8, 11)
	rec := obs.NewRecorder(1 << 16)
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	s.RunUntil(500)

	last := map[int32]int64{}
	for _, e := range rec.Events() {
		if e.Kind != obs.EvLagExtremum {
			continue
		}
		if e.A <= last[e.Task] {
			t.Fatalf("lag extremum for task %d not increasing: %d after %d", e.Task, e.A, last[e.Task])
		}
		last[e.Task] = e.A
	}
	if len(last) == 0 {
		t.Fatal("no lag extremum events recorded")
	}
	for id, num := range last {
		tm := met.Task(id)
		if tm == nil {
			t.Fatalf("task %d has extremum events but no instruments", id)
		}
		if tm.MaxAbsLagNum.Value() != num {
			t.Errorf("task %d gauge = %d, last extremum = %d", id, tm.MaxAbsLagNum.Value(), num)
		}
	}
}

// TestObserveMidRunAttach: attaching mid-run registers already-admitted
// tasks and starts the stream at the current slot; detaching stops it.
func TestObserveMidRunAttach(t *testing.T) {
	s := newLoadedScheduler(t, 2, 10, 1.8, 3)
	s.RunUntil(100)
	rec := obs.NewRecorder(1 << 12)
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	s.RunUntil(150)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events after mid-run attach")
	}
	for _, e := range events {
		if e.Slot < 100 {
			t.Fatalf("event before attach slot: %+v", e)
		}
	}
	if len(rec.TaskIDs()) != len(s.Tasks()) {
		t.Errorf("registered %d tasks, scheduler has %d", len(rec.TaskIDs()), len(s.Tasks()))
	}
	total := rec.Total()
	s.Observe(nil, nil)
	s.RunUntil(200)
	if rec.Total() != total {
		t.Error("events recorded after detach")
	}
}

// shifted is an IS release model that delays every subtask by d slots.
type shifted struct{ d int64 }

func (m shifted) Offset(int64) int64    { return m.d }
func (m shifted) Earliness(int64) int64 { return 0 }

// TestReleaseStormEventOrder releases 4096 subtasks in one slot under a
// recorder and requires their EvRelease events in (eligibility, id)
// order. Half the batch entered the pending wheel at admission (an IS
// offset), half at dispatch over the preceding slots; the wheel hands
// the bucket back in reverse insertion order, so the batch arrives far
// from sorted.
func TestReleaseStormEventOrder(t *testing.T) {
	const m, half, period = 64, 2048, 64
	s := NewScheduler(m, PD2, Options{})
	rec := obs.NewRecorder(1 << 16)
	s.Observe(rec, nil)
	for i := 0; i < 2*half; i++ {
		var model ReleaseModel
		if i >= half {
			model = shifted{period}
		}
		if err := s.JoinModel(task.MustNew(fmt.Sprintf("T%04d", i), 1, period), model); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	s.RunUntil(period + 1)
	if rec.Dropped() != 0 {
		t.Fatalf("ring too small: dropped %d events", rec.Dropped())
	}

	// A subtask released in slot t became eligible at t, so the event's
	// slot is its eligibility; ids are fixed at admission.
	var ids []int
	for _, e := range rec.Events() {
		if e.Kind == obs.EvRelease && e.Slot == period {
			ids = append(ids, s.tasks[rec.TaskName(e.Task)].id)
		}
	}
	if len(ids) != 2*half {
		t.Fatalf("slot %d released %d subtasks, want %d", period, len(ids), 2*half)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("EvRelease %d (id %d) does not precede EvRelease %d (id %d)", i-1, ids[i-1], i, ids[i])
		}
	}
}

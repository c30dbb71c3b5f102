package main

import (
	"bytes"
	"strings"
	"testing"

	"pfair/internal/core"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// traceOf runs a scheduler over set and returns the Chrome trace JSON a
// pfairsim -trace invocation would write, plus the scheduler for
// cross-checking the report against ground truth.
func traceOf(t *testing.T, alg core.Algorithm, m int, set task.Set, horizon int64, ringCap int) ([]byte, *core.Scheduler) {
	t.Helper()
	s := core.NewScheduler(m, alg, core.Options{})
	rec := obs.NewRecorder(ringCap)
	s.Observe(rec, nil)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{
		Procs: m,
		Extra: map[string]any{"alg": alg.String(), "m": m},
	})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes(), s
}

// epdfCounterexample is the pinned workload on which EPDF misses a
// deadline (full utilization on 5 processors).
func epdfCounterexample(t *testing.T) task.Set {
	t.Helper()
	return task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
}

// TestRoundTripAccounting checks the reconstructed report against the
// scheduler that produced the trace: the trace must round-trip the
// dispatch totals, migrations, and (absence of) misses exactly.
func TestRoundTripAccounting(t *testing.T) {
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)}
	data, s := traceOf(t, core.PD2, 2, set, 120, 1<<16)

	td, err := parseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep, err := buildReport(td, 2)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	st := s.Stats()

	var dispatches, migrations int64
	for _, ts := range rep.Tasks {
		dispatches += ts.Dispatches
		migrations += ts.Migrations
	}
	if dispatches != st.Allocations {
		t.Errorf("report dispatches = %d, scheduler allocated %d", dispatches, st.Allocations)
	}
	if migrations != st.Migrations {
		t.Errorf("report migrations = %d, scheduler counted %d", migrations, st.Migrations)
	}
	var matrixTotal int64
	for _, row := range rep.Migrations {
		for _, v := range row {
			matrixTotal += v
		}
	}
	if matrixTotal != st.Migrations {
		t.Errorf("migration matrix sums to %d, scheduler counted %d", matrixTotal, st.Migrations)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("feasible PD² run reported %d misses", len(rep.Misses))
	}
	if rep.Procs != 2 {
		t.Errorf("procs = %d, want 2", rep.Procs)
	}
	if rep.Ring.DroppedEvents != 0 {
		t.Errorf("complete trace reported %d dropped events", rep.Ring.DroppedEvents)
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	for _, want := range []string{"per-task accounting", "migration matrix", "no deadline misses", "A", "trace is complete"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestMissWindowNamesTask: on the EPDF counterexample the report must
// name the missing task, include the surrounding events, and reconstruct
// the deadline ties with b-bit/group-deadline narration.
func TestMissWindowNamesTask(t *testing.T) {
	set := epdfCounterexample(t)
	data, s := traceOf(t, core.EPDF, 5, set, 180, 1<<16)
	// Only misses detected during the run emit EvMiss; FinishMisses adds
	// horizon-boundary entries (ScheduledAt −1) the trace cannot carry.
	var traced []core.Miss
	for _, m := range s.Stats().Misses {
		if m.ScheduledAt >= 0 {
			traced = append(traced, m)
		}
	}
	if len(traced) == 0 {
		t.Fatal("EPDF counterexample no longer misses; test needs a new workload")
	}
	wantTask := traced[0].Task

	td, err := parseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep, err := buildReport(td, 2)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if len(rep.Misses) != len(traced) {
		t.Fatalf("report has %d misses, scheduler detected %d during the run", len(rep.Misses), len(traced))
	}
	m := rep.Misses[0]
	if m.Task != wantTask {
		t.Errorf("miss window names %q, scheduler missed %q", m.Task, wantTask)
	}
	if len(m.Window) == 0 {
		t.Error("miss window has no events")
	}
	if len(m.Ties) == 0 {
		t.Fatal("miss window has no deadline-tie reconstruction")
	}
	foundBBit := false
	for _, tie := range m.Ties {
		for _, line := range tie.Tasks {
			if strings.Contains(line, "b-bit") {
				foundBBit = true
			}
		}
	}
	if !foundBBit {
		t.Error("tie reconstruction carries no b-bit narration")
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	out := human.String()
	for _, want := range []string{"DEADLINE MISS " + wantTask, "b-bit", "group deadline"} {
		if !strings.Contains(out, want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestChurnRoundTrip: a run with mid-run join, reweight, and leave must
// surface its admission-plane activity in the report — counts, a
// narrated timeline, and the reweighted task's pattern picked up for
// forensics — and the human output must carry the churn section.
func TestChurnRoundTrip(t *testing.T) {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	rec := obs.NewRecorder(1 << 16)
	s.Observe(rec, nil)
	for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(24)
	if err := s.Join(task.MustNew("C", 1, 4)); err != nil {
		t.Fatalf("mid-run join: %v", err)
	}
	if _, err := s.Reweight("B", 1, 2); err != nil {
		t.Fatalf("reweight: %v", err)
	}
	s.RunUntil(48)
	if _, err := s.Leave("C"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	s.RunUntil(96)
	s.FinishMisses(96)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 2}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	td, err := parseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep, err := buildReport(td, 2)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.Churn == nil {
		t.Fatal("report has no churn section despite mid-run operations")
	}
	// Core reweight is leave-and-rejoin: B's new incarnation adds one
	// join and one leave beyond the explicit operations.
	if rep.Churn.Reweights != 1 {
		t.Errorf("churn reweights = %d, want 1", rep.Churn.Reweights)
	}
	if rep.Churn.Joins < 3 || rep.Churn.Leaves < 1 {
		t.Errorf("churn joins/leaves = %d/%d, want at least 3/1", rep.Churn.Joins, rep.Churn.Leaves)
	}
	var sawReweight bool
	for _, line := range rep.Churn.Timeline {
		if strings.Contains(line, "reweight") && strings.Contains(line, "B") {
			sawReweight = true
		}
	}
	if !sawReweight {
		t.Errorf("churn timeline does not narrate B's reweight: %q", rep.Churn.Timeline)
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	for _, want := range []string{"dynamic-task churn", "reweight"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestLagExtremaRoundTrip: with a metrics block attached the trace
// carries lag-extremum instants, including the end-of-run fold stamped
// with the horizon itself; they must not stretch the reconstructed run,
// and the replayed accounting's signed lag extrema must agree with the
// scheduler's folded max-|lag| gauges. The set fills both processors, so
// every slot has a span and the trace alone fixes the horizon; at this
// horizon C's lag peaks (14/15) exactly at the run's end.
func TestLagExtremaRoundTrip(t *testing.T) {
	const horizon = 13
	s := core.NewScheduler(2, core.PD2, core.Options{})
	rec := obs.NewRecorder(1 << 16)
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	for _, tk := range []*task.Task{task.MustNew("A", 2, 3), task.MustNew("B", 4, 5), task.MustNew("C", 8, 15)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 2}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	td, err := parseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep, err := buildReport(td, 2)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.Slots != horizon {
		t.Errorf("report spans %d slots, the run %d", rep.Slots, horizon)
	}
	atEnd := false
	for _, e := range td.events {
		atEnd = atEnd || e.Kind == obs.EvLagExtremum && e.Slot == horizon
	}
	if !atEnd {
		t.Fatal("no lag-extremum event from the end-of-run fold; test premise broken")
	}
	for _, ts := range rep.Tasks {
		want := ts.LagMaxNum
		if -ts.LagMinNum > want {
			want = -ts.LagMinNum
		}
		if got := met.Task(ts.ID).MaxAbsLagNum.Value(); got != want {
			t.Errorf("%s: gauge max |lag| %d/%d, replayed extrema [%d,%d]/%d", ts.Name, got, ts.LagDen, ts.LagMinNum, ts.LagMaxNum, ts.LagDen)
		}
	}
}

// TestRingWrapSurfaced: a trace whose ring wrapped must carry the drop
// count through to the report and the human output must warn.
func TestRingWrapSurfaced(t *testing.T) {
	set := epdfCounterexample(t)
	data, _ := traceOf(t, core.EPDF, 5, set, 180, 1<<8)

	td, err := parseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep, err := buildReport(td, 2)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.Ring.DroppedEvents == 0 {
		t.Fatal("256-event ring over a 180-slot, 8-task run did not wrap; test premise broken")
	}
	if rep.Ring.TotalEvents != rep.Ring.RetainedEvents+rep.Ring.DroppedEvents {
		t.Errorf("ring accounting inconsistent: total %d != retained %d + dropped %d",
			rep.Ring.TotalEvents, rep.Ring.RetainedEvents, rep.Ring.DroppedEvents)
	}
	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	if !strings.Contains(human.String(), "WARNING: ring wrapped") {
		t.Error("human report does not warn about the wrapped ring")
	}
}

// TestRejectsNonTraces: garbage and schedule-free inputs must error, not
// produce empty reports.
func TestRejectsNonTraces(t *testing.T) {
	if _, err := parseTrace(strings.NewReader("not json")); err == nil {
		t.Error("parseTrace accepted garbage")
	}
	td, err := parseTrace(strings.NewReader(`{"traceEvents":[],"otherData":{"slotMicros":1000}}`))
	if err != nil {
		t.Fatalf("parseTrace on empty trace: %v", err)
	}
	if _, err := buildReport(td, 2); err == nil {
		t.Error("buildReport accepted a trace with no schedule events")
	}
}

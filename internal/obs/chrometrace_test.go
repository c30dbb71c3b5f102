package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// decodeTrace unmarshals exporter output into the loose map form a
// validator (or Perfetto) sees.
func decodeTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	return f.TraceEvents
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(256)
	r.RegisterTask(0, "A")
	r.RegisterTask(1, "B")
	// A runs slots 0-2 on P0 (one merged span), migrates to P1 for slot
	// 3; B releases, runs slot 1 on P1, misses at slot 4.
	r.Emit(Event{Slot: 0, Kind: EvSchedule, Task: 0, Proc: 0, A: 1})
	r.Emit(Event{Slot: 1, Kind: EvRelease, Task: 1, Proc: -1, A: 1})
	r.Emit(Event{Slot: 1, Kind: EvSchedule, Task: 0, Proc: 0, A: 2})
	r.Emit(Event{Slot: 1, Kind: EvSchedule, Task: 1, Proc: 1, A: 1})
	r.Emit(Event{Slot: 2, Kind: EvSchedule, Task: 0, Proc: 0, A: 3})
	r.Emit(Event{Slot: 3, Kind: EvMigrate, Task: 0, Proc: 1, A: 0, B: 4})
	r.Emit(Event{Slot: 3, Kind: EvSchedule, Task: 0, Proc: 1, A: 4})
	r.Emit(Event{Slot: 4, Kind: EvMiss, Task: 1, Proc: -1, A: 2, B: 4})
	r.Emit(Event{Slot: 4, Kind: EvTieBreakB, Task: 0, Proc: -1, A: 1, B: 6})

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r, ChromeTraceOptions{Procs: 2}); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b.Bytes())

	type span struct{ ts, dur, pid, tid float64 }
	var spans []span
	names := map[string]int{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		names[name]++
		if ph == "X" {
			ts, _ := e["ts"].(float64)
			dur, _ := e["dur"].(float64)
			pid, _ := e["pid"].(float64)
			tid, _ := e["tid"].(float64)
			spans = append(spans, span{ts, dur, pid, tid})
		}
	}

	// Thread metadata for both pid groups and both CPU lanes.
	for _, want := range []string{"process_name", "thread_name", "release", "deadline-miss", "migration", "tiebreak-bbit"} {
		if names[want] == 0 {
			t.Errorf("no %q event in trace", want)
		}
	}

	// A's slots 0-2 on P0 must merge into one 3-slot span on the
	// processor lane (pid 0, tid 0) and mirror on the task lane (pid 1).
	foundProc, foundTask := false, false
	for _, s := range spans {
		if s.ts == 0 && s.dur == 3000 && s.pid == 0 && s.tid == 0 {
			foundProc = true
		}
		if s.ts == 0 && s.dur == 3000 && s.pid == 1 && s.tid == 0 {
			foundTask = true
		}
	}
	if !foundProc {
		t.Errorf("merged 3-slot span missing on processor lane; spans: %+v", spans)
	}
	if !foundTask {
		t.Errorf("merged 3-slot span missing on task lane; spans: %+v", spans)
	}

	// The migration slot must be a separate 1-slot span on P1.
	found := false
	for _, s := range spans {
		if s.ts == 3000 && s.dur == 1000 && s.pid == 0 && s.tid == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("post-migration span missing; spans: %+v", spans)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRecorder(64)
		r.RegisterTask(0, "A")
		r.RegisterTask(1, "B")
		r.Emit(Event{Slot: 0, Kind: EvSchedule, Task: 0, Proc: 0, A: 1})
		r.Emit(Event{Slot: 0, Kind: EvSchedule, Task: 1, Proc: 1, A: 1})
		r.Emit(Event{Slot: 1, Kind: EvMiss, Task: 1, Proc: -1, A: 1, B: 1})
		var b bytes.Buffer
		if err := WriteChromeTrace(&b, r, ChromeTraceOptions{}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical recordings exported different bytes")
	}
}

func TestChromeTraceCustomSlotMicros(t *testing.T) {
	r := NewRecorder(16)
	r.RegisterTask(0, "A")
	r.Emit(Event{Slot: 2, Kind: EvSchedule, Task: 0, Proc: 0, A: 1})
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r, ChromeTraceOptions{SlotMicros: 10}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range decodeTrace(t, b.Bytes()) {
		if ph, _ := e["ph"].(string); ph == "X" {
			if ts, _ := e["ts"].(float64); ts == 20 {
				found = true
			}
		}
	}
	if !found {
		t.Error("custom SlotMicros not applied to span timestamps")
	}
}

// TestChromeTraceNamesRetainedTasksOnly: task lanes are named only for
// the tasks the retained events mention — including a tie-break's loser,
// which appears only in A — so a wrapped ring's export does not carry
// every task ever registered.
func TestChromeTraceNamesRetainedTasksOnly(t *testing.T) {
	r := NewRecorder(4)
	for id, name := range []string{"gone", "A", "B", "idle", "C"} {
		r.RegisterTask(int32(id), name)
	}
	r.Emit(Event{Slot: 0, Kind: EvSchedule, Task: 0, Proc: 0, A: 1}) // wrapped away
	r.Emit(Event{Slot: 1, Kind: EvSchedule, Task: 1, Proc: 0, A: 1})
	r.Emit(Event{Slot: 1, Kind: EvTieBreakB, Task: 1, Proc: -1, A: 2, B: 3})
	r.Emit(Event{Slot: 2, Kind: EvSchedule, Task: 4, Proc: 0, A: 1})
	r.Emit(Event{Slot: 2, Kind: EvIdle, Task: -1, Proc: 1})
	if r.Dropped() != 1 {
		t.Fatalf("dropped %d events, want 1", r.Dropped())
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, r, ChromeTraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, e := range decodeTrace(t, b.Bytes()) {
		if e["name"] == "thread_name" && e["pid"] == float64(chromePidTasks) {
			args, _ := e["args"].(map[string]any)
			name, _ := args["name"].(string)
			lanes = append(lanes, name)
		}
	}
	if got, want := fmt.Sprint(lanes), "[A B C]"; got != want {
		t.Errorf("task lanes %s, want %s (the retained events' tasks and the tie-break loser)", got, want)
	}
}

package main

import (
	"bytes"
	"testing"

	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/rm"
	"pfair/internal/task"
)

// TestAcceptsRMTrace: the fixed-priority simulator's trace of the
// rm-feasible golden set exports to a Chrome trace tracecheck accepts,
// with spans in both lane groups and the releases, preemptions and
// joins the run produced.
func TestAcceptsRMTrace(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	s, err := rm.NewSimulator(task.Set{task.MustNew("A", 1, 4), task.MustNew("B", 1, 5), task.MustNew("C", 2, 10)},
		engine.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := check("rm.trace.json", buf.Bytes(), "release,preemption,join", true); err != nil {
		t.Fatal(err)
	}
	if _, err := check("empty.json", []byte(`{"traceEvents": []}`), "", false); err == nil {
		t.Error("empty trace accepted")
	}
}

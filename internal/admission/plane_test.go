package admission

import (
	"errors"
	"testing"

	"pfair/internal/obs"
)

// TestPlaneLedgerOrder: the ledger holds exactly the committed
// transactions, in commit order; rejects interleaved between them never
// enter it, and Log hands out a copy.
func TestPlaneLedgerOrder(t *testing.T) {
	p := NewPlane()
	refused := errors.New("infeasible")
	want := []Decision{
		{Op: OpJoin, Name: "a", EffectiveAt: 0},
		{Op: OpJoin, Name: "b", EffectiveAt: 0},
		{Op: OpReweight, Name: "a", EffectiveAt: 5},
		{Op: OpLeave, Name: "b", EffectiveAt: 4},
		{Op: OpFinish, Name: "a", EffectiveAt: 9},
	}
	p.Commit(want[0])
	_ = p.Reject(OpJoin, refused)
	p.Commit(want[1])
	p.Commit(want[2])
	_ = p.Reject(OpReweight, refused)
	_ = p.Reject(OpLeave, refused)
	p.Commit(want[3])
	p.Commit(want[4])

	got := p.Log()
	if len(got) != len(want) {
		t.Fatalf("ledger has %d decisions, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ledger[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if p.Rejects() != 3 {
		t.Errorf("Rejects() = %d, want 3", p.Rejects())
	}

	got[0].Name = "mutated"
	if p.Log()[0].Name != "a" {
		t.Error("Log returned the plane's own slice, not a copy")
	}
	if NewPlane().Log() != nil {
		t.Error("an empty plane's ledger is not empty")
	}
}

// TestPlaneRejectAccounting: a reject of any op returns the caller's
// error unchanged, counts once in Rejects and in the attached
// AdmissionRejects counter, and moves neither the ledger nor the
// per-op acceptance counters.
func TestPlaneRejectAccounting(t *testing.T) {
	p := NewPlane()
	met := obs.NewSchedulerMetrics(nil)
	p.Observe(nil, met)
	for i, op := range []Op{OpJoin, OpLeave, OpReweight, OpFinish} {
		err := errors.New(op.String() + " refused")
		if got := p.Reject(op, err); got != err {
			t.Errorf("Reject(%v) returned %v, want the caller's error", op, got)
		}
		if n := int64(i + 1); p.Rejects() != n || met.AdmissionRejects.Value() != n {
			t.Errorf("after rejecting %v: Rejects() = %d, counter = %d, want %d",
				op, p.Rejects(), met.AdmissionRejects.Value(), n)
		}
	}
	if len(p.Log()) != 0 {
		t.Errorf("rejects entered the ledger: %v", p.Log())
	}
	if met.Joins.Value()+met.Leaves.Value()+met.Reweights.Value() != 0 {
		t.Errorf("rejects moved acceptance counters: joins %d, leaves %d, reweights %d",
			met.Joins.Value(), met.Leaves.Value(), met.Reweights.Value())
	}
}

// TestPlaneCommitCounters: each commit bumps its op's counter (finish
// folds into leaves) only while a metrics block is attached; the ledger
// records every commit regardless.
func TestPlaneCommitCounters(t *testing.T) {
	p := NewPlane()
	p.Commit(Decision{Op: OpJoin, Name: "before"})
	met := obs.NewSchedulerMetrics(nil)
	p.Observe(nil, met)
	for _, op := range []Op{OpJoin, OpJoin, OpLeave, OpFinish, OpReweight} {
		p.Commit(Decision{Op: op, Name: "x"})
	}
	_ = p.Reject(OpJoin, errors.New("no"))
	p.Observe(nil, nil)
	p.Commit(Decision{Op: OpReweight, Name: "after"})
	_ = p.Reject(OpLeave, errors.New("no"))

	if got := [3]int64{met.Joins.Value(), met.Leaves.Value(), met.Reweights.Value()}; got != [3]int64{2, 2, 1} {
		t.Errorf("joins/leaves/reweights = %v, want [2 2 1]", got)
	}
	if met.AdmissionRejects.Value() != 1 || p.Rejects() != 2 {
		t.Errorf("reject counter = %d (want 1, attached only), Rejects() = %d (want 2)",
			met.AdmissionRejects.Value(), p.Rejects())
	}
	if n := len(p.Log()); n != 7 {
		t.Errorf("ledger has %d decisions, want 7", n)
	}
}

// TestPlaneEmitters: the churn events carry the documented operands and
// are emitted only while a recorder is attached.
func TestPlaneEmitters(t *testing.T) {
	p := NewPlane()
	p.EmitJoin(0, 0, 1, 2) // detached: dropped
	rec := obs.NewRecorder(16)
	p.Observe(rec, nil)
	p.EmitJoin(3, 1, 2, 5)
	p.EmitLeave(7, 1, 4)
	p.EmitReweight(7, 2, 1, 3)

	want := []obs.Event{
		{Slot: 3, Kind: obs.EvJoin, Task: 1, Proc: -1, A: 2, B: 5},
		{Slot: 7, Kind: obs.EvLeave, Task: 1, Proc: -1, A: 4},
		{Slot: 7, Kind: obs.EvReweight, Task: 2, Proc: -1, A: 1, B: 3},
	}
	got := rec.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

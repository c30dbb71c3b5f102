package admission

import (
	"strings"
	"testing"

	"pfair/internal/task"
)

// TestValidateShapes: each op accepts exactly its own fields.
func TestValidateShapes(t *testing.T) {
	a := task.MustNew("a", 1, 2)
	for _, tc := range []struct {
		req     Request
		wantErr string // "" = valid
	}{
		{Join(a), ""},
		{Request{Op: OpJoin}, "carries no task"},
		{Join(&task.Task{Name: "bad", Cost: 3, Period: 2}), "bad"},
		{Leave("a"), ""},
		{Leave(""), "leave request names no task"},
		{Request{Op: OpLeave, Name: "a", Task: a}, "must not carry a task or model"},
		{Finish("a"), ""},
		{Request{Op: OpFinish, Name: "a", Model: 1}, "must not carry a task or model"},
		{Reweight("a", 1, 3), ""},
		{Reweight("", 1, 3), "reweight request names no task"},
		{Reweight("a", 4, 3), "want 1 ≤ cost ≤ period"},
		{Reweight("a", 0, 3), "want 1 ≤ cost ≤ period"},
		{Request{Op: Op(9), Name: "a"}, "unknown op 9"},
	} {
		err := tc.req.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.req, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%+v: err = %v, want one containing %q", tc.req, err, tc.wantErr)
		}
	}
}

// TestRequestNamesAndOps covers TaskName and the op names the ledger
// and events print.
func TestRequestNamesAndOps(t *testing.T) {
	if got := Join(task.MustNew("j", 1, 2)).TaskName(); got != "j" {
		t.Errorf("join TaskName = %q", got)
	}
	if got := Reweight("r", 1, 2).TaskName(); got != "r" {
		t.Errorf("reweight TaskName = %q", got)
	}
	for op, want := range map[Op]string{OpJoin: "join", OpLeave: "leave", OpReweight: "reweight", OpFinish: "finish", Op(9): "unknown"} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if got := (Decision{Op: OpLeave, Name: "a", EffectiveAt: 7}).String(); got != "leave a @7" {
		t.Errorf("Decision.String() = %q", got)
	}
}

package rm

import (
	"runtime"
	"testing"

	"pfair/internal/task"
)

// The RM simulator (edf's job simulator under RM order) is event-driven
// on the shared engine: it allocates exactly one job object and its heap
// handle per released job, and nothing else in steady state. This guard
// pins that — the engine migration must not introduce per-event garbage
// on top of the inherent job objects.
func TestRunAllocsPerJob(t *testing.T) {
	set := task.Set{
		task.MustNew("a", 1, 4), task.MustNew("b", 1, 5), task.MustNew("c", 1, 10),
	}
	s := mustSim(t, set)
	// Warm-up settles heap capacities and the engine binding.
	s.Run(10_000)
	jobs0 := s.Stats().Jobs

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(100_000)
	runtime.ReadMemStats(&after)

	jobs := s.Stats().Jobs - jobs0
	if jobs == 0 {
		t.Fatal("no jobs released in the measured window")
	}
	allocs := after.Mallocs - before.Mallocs
	// Two allocations per job (the job object and its heap handle) plus
	// slack for the runtime's own noise.
	if limit := uint64(2*jobs) + 64; allocs > limit {
		t.Errorf("Run allocated %d times for %d jobs, want ≤ %d (≈2 per released job)", allocs, jobs, limit)
	}
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("RM-schedulable set missed %d deadlines", n)
	}
}

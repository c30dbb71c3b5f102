package edf

import (
	"fmt"
	"runtime"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/task"
)

// The EDF simulator is event-driven on the shared engine: it allocates
// exactly one job object and its heap handle per released job, and
// nothing else in steady state. This guard pins that — the engine
// migration must not introduce per-event garbage (interface boxing,
// closure captures) on top of the inherent job objects.
func TestRunAllocsPerJob(t *testing.T) {
	s := NewSimulator()
	for _, tk := range []*task.Task{
		task.MustNew("a", 1, 4), task.MustNew("b", 1, 5), task.MustNew("c", 2, 10),
	} {
		if err := s.Add(Config{Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up settles heap capacities and the engine binding.
	s.Run(10_000)
	jobs0 := s.stats.Jobs

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(100_000)
	runtime.ReadMemStats(&after)

	jobs := s.stats.Jobs - jobs0
	if jobs == 0 {
		t.Fatal("no jobs released in the measured window")
	}
	allocs := after.Mallocs - before.Mallocs
	// Two allocations per job (the job object and its heap handle) plus
	// slack for the runtime's own noise.
	if limit := uint64(2*jobs) + 64; allocs > limit {
		t.Errorf("Run allocated %d times for %d jobs, want ≤ %d (≈2 per released job)", allocs, jobs, limit)
	}
	if n := len(s.stats.Misses); n != 0 {
		t.Fatalf("schedulable set missed %d deadlines", n)
	}
}

// TestChurnWheelBounded: the release wheel's chunk pool and drain
// scratch are sized by the live task count, not by every task ever
// added. 10 000 join/leave pairs in waves of at most 64 live tasks must
// leave both bounded by that high-water mark.
func TestChurnWheelBounded(t *testing.T) {
	const pairs, wave = 10_000, 64
	for _, o := range jobOrders {
		t.Run(o.name, func(t *testing.T) {
			s := o.new()
			hw := 0
			for joined := 0; joined < pairs; {
				var names []string
				for len(s.tasks) < wave && joined < pairs {
					name := fmt.Sprintf("T%d", joined)
					if _, err := s.Submit(admission.Join(task.MustNew(name, 1, 128))); err != nil {
						t.Fatalf("join %s: %v", name, err)
					}
					names = append(names, name)
					joined++
				}
				hw = max(hw, len(s.tasks))
				if err := s.Engine().Run(s.Now() + 200); err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if _, err := s.Submit(admission.Leave(name)); err != nil {
						t.Fatalf("leave %s: %v", name, err)
					}
				}
			}
			chunks, scratch := s.relWheel.Footprint()
			if chunks > 3*hw || scratch > 2*hw {
				t.Fatalf("after %d join/leave pairs with ≤ %d live: wheel holds %d chunks and %d scratch slots, want ≤ %d and ≤ %d",
					pairs, hw, chunks, scratch, 3*hw, 2*hw)
			}
		})
	}
}

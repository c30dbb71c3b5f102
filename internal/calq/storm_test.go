package calq

import (
	"math/rand"
	"slices"
	"testing"
)

// insertOrders are the arrival orders a MinQueue meets in practice and
// the ones that stress the run tail: sorted runs both ways, a zigzag
// that breaks every run, random arrivals, and two sorted rounds
// interleaved (two waves of releases sharing a bucket).
var insertOrders = []struct {
	name  string
	order func(k int, rng *rand.Rand) []int
}{
	{"ascending", func(k int, _ *rand.Rand) []int {
		o := make([]int, k)
		for i := range o {
			o[i] = i
		}
		return o
	}},
	{"descending", func(k int, _ *rand.Rand) []int {
		o := make([]int, k)
		for i := range o {
			o[i] = k - 1 - i
		}
		return o
	}},
	{"zigzag", func(k int, _ *rand.Rand) []int {
		o := make([]int, 0, k)
		for lo, hi := 0, k-1; lo <= hi; lo, hi = lo+1, hi-1 {
			o = append(o, lo)
			if lo != hi {
				o = append(o, hi)
			}
		}
		return o
	}},
	{"random", func(k int, rng *rand.Rand) []int { return rng.Perm(k) }},
	{"two-rounds", func(k int, _ *rand.Rand) []int {
		o := make([]int, 0, k)
		for i := 0; i < k/2; i++ {
			o = append(o, i, k/2+i)
		}
		if k%2 == 1 {
			o = append(o, k-1)
		}
		return o
	}},
}

// TestMinQueueInsertOrders pops every arrival order against a sorted
// reference. Each rank maps to a (key, id) pair over a few keys, so
// entries both share buckets (ties broken by less) and spread across
// them; a fifth of the entries are removed mid-sequence, and the span
// grows between the two halves of the inserts, rehashing the runs built
// so far.
func TestMinQueueInsertOrders(t *testing.T) {
	const k = 600
	for _, io := range insertOrders {
		t.Run(io.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			q := NewMinQueue[qv](4, qvLess)
			entries := map[qv]*Entry[qv]{}
			var live []qv
			for n, r := range io.order(k, rng) {
				if n == k/2 {
					q.EnsureSpan(300)
				}
				// Keys 0, 70, 140, ...: within the grown span, but
				// mixing rounds in the initial 64-bucket table.
				v := qv{key: int64(r/100) * 70, id: r}
				e := NewEntry(v)
				entries[v] = e
				q.Add(e, v.key)
				live = append(live, v)
				if rng.Intn(5) == 0 {
					j := rng.Intn(len(live))
					q.Remove(entries[live[j]])
					live = slices.Delete(live, j, j+1)
				}
			}
			slices.SortFunc(live, func(a, b qv) int {
				if qvLess(a, b) {
					return -1
				}
				return 1
			})
			for i, want := range live {
				if pv, _, _ := q.PeekMin(); pv != want {
					t.Fatalf("peek %d = %+v, want %+v", i, pv, want)
				}
				if got := q.PopMin(); got != want {
					t.Fatalf("pop %d = %+v, want %+v", i, got, want)
				}
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after draining, want 0", q.Len())
			}
		})
	}
}

// TestMinQueueSortedRunComparisons bounds the work a sorted run costs:
// k inserts under one key followed by k pops call less at most 2k times,
// in either direction. Entries hung off the root one by one would leave
// the first pop to pair up all k of them.
func TestMinQueueSortedRunComparisons(t *testing.T) {
	const k = 4096
	for _, dir := range []string{"ascending", "descending"} {
		t.Run(dir, func(t *testing.T) {
			calls := 0
			q := NewMinQueue[int](64, func(a, b int) bool {
				calls++
				return a < b
			})
			for i := 0; i < k; i++ {
				v := i
				if dir == "descending" {
					v = k - 1 - i
				}
				q.Add(NewEntry(v), 100)
			}
			for i := 0; i < k; i++ {
				if got := q.PopMin(); got != i {
					t.Fatalf("pop %d = %d", i, got)
				}
			}
			if calls > 2*k {
				t.Fatalf("%d sorted inserts and pops called less %d times, want ≤ %d", k, calls, 2*k)
			}
		})
	}
}

// TestWheelDueFIFO: Due hands back a bucket's items in the order they
// were queued, across chunk boundaries, and the items of a later round
// it leaves behind keep their order for their own drain.
func TestWheelDueFIFO(t *testing.T) {
	w := NewWheel[int](10) // 64 buckets
	span := w.Span()
	var now, later []int
	for i := 0; i < 5*chunkSize+3; i++ {
		slot := int64(5)
		if i%3 == 1 {
			slot += span // same bucket, next round
			later = append(later, i)
		} else {
			now = append(now, i)
		}
		w.Add(NewItem(i), slot)
	}
	if got := w.Due(5); !slices.Equal(got, now) {
		t.Fatalf("Due(5) = %v, want %v", got, now)
	}
	if nx, ok := w.NextOccupied(6); !ok || nx != 5+span {
		t.Fatalf("NextOccupied(6) = %d, %v; want %d, true", nx, ok, 5+span)
	}
	if got := w.Due(5 + span); !slices.Equal(got, later) {
		t.Fatalf("Due(%d) = %v, want %v", 5+span, got, later)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after both drains, want 0", w.Len())
	}
}

// TestWheelZeroAllocsAfterReserve: once Reserve(n) has run, Add, Remove
// and Due allocate nothing, in both extreme layouts — every item alone
// in its bucket (one partly filled chunk per item) and every item in one
// bucket (full chunks end to end).
func TestWheelZeroAllocsAfterReserve(t *testing.T) {
	const n = 500
	layouts := []struct {
		name string
		slot func(i int) int64
	}{
		{"one-per-bucket", func(i int) int64 { return int64(i) }},
		{"one-bucket", func(int) int64 { return 7 }},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			w := NewWheel[int](n)
			w.Reserve(n)
			items := make([]*Item[int], n)
			for i := range items {
				items[i] = NewItem(i)
			}
			cycle := func() {
				for i, it := range items {
					w.Add(it, l.slot(i))
				}
				for i := 0; i < n; i += 7 {
					w.Remove(items[i])
				}
				for s := int64(0); s < n; s++ {
					w.Due(s)
				}
				if w.Len() != 0 {
					t.Fatalf("Len = %d after a full drain", w.Len())
				}
			}
			cycle() // the first pass may not touch every pooled chunk; count the rest
			if a := testing.AllocsPerRun(20, cycle); a != 0 {
				t.Fatalf("Add/Remove/Due cycle allocated %.1f times per run after Reserve(%d)", a, n)
			}
			chunks, scratch := w.Footprint()
			if limit := 2 * (n/chunkSize + 1 + n); chunks > limit {
				t.Fatalf("pool holds %d chunks for %d reserved items, want ≤ %d", chunks, n, limit)
			}
			if scratch > 2*n {
				t.Fatalf("drain scratch holds %d, want ≤ %d", scratch, 2*n)
			}
		})
	}
}

// TestWheelRemoveKeepsMinimum: removing a bucket's earliest item leaves
// a stale cached minimum that NextOccupied must not report.
func TestWheelRemoveKeepsMinimum(t *testing.T) {
	w := NewWheel[int](10) // 64 buckets
	a, b := NewItem(1), NewItem(2)
	w.Add(a, 3)
	w.Add(b, 3+w.Span())
	w.Remove(a)
	if nx, ok := w.NextOccupied(0); !ok || nx != 3+w.Span() {
		t.Fatalf("NextOccupied = %d, %v; want %d, true", nx, ok, 3+w.Span())
	}
	if got := w.Due(3); len(got) != 0 {
		t.Fatalf("Due(3) = %v after removing its only item", got)
	}
}

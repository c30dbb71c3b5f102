package calq

import (
	"math"
	"slices"
	"testing"
)

// FuzzCalq drives a Wheel and a MinQueue through an arbitrary operation
// sequence and checks both against a slice-based reference after every
// step. Each operation is three bytes: an opcode, an element, and an
// argument that places the element's key near the drain cursor, behind
// it, or several revolutions past the current span. Element and key are
// independent, so one bucket can hold more items than a chunk. The
// wheel is drained slot by slot, as its callers drain it. Run it with
// `make fuzz-calq`; plain `go test` replays the seed corpus.
func FuzzCalq(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 2, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{5, 1, 1, 5, 2, 2, 5, 3, 3, 7, 0, 0, 6, 2, 0, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{0, 8, 200, 0, 9, 201, 4, 0, 90, 3, 0, 0, 2, 0, 5, 1, 8, 0, 3, 0, 0})
	f.Add([]byte{5, 2, 130, 5, 7, 7, 8, 0, 250, 5, 9, 9, 6, 7, 0, 7, 0, 0, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{9, 0, 40, 0, 10, 10, 0, 42, 42, 0, 11, 74, 1, 42, 0, 2, 0, 10, 3, 0, 0, 2, 0, 74})
	// A run tail that leaves the queue (popped, then removed) must not
	// adopt the next insert.
	f.Add([]byte{5, 1, 129, 5, 0, 128, 7, 0, 0, 5, 2, 130, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{5, 1, 129, 5, 0, 128, 6, 0, 0, 5, 2, 130, 7, 0, 0, 7, 0, 0})
	// Two chunks' worth of items in one bucket, drained; two buckets
	// then reuse its chunks, the second empties by a removal and is
	// refilled, and both drain.
	many := []byte{}
	for i := byte(0); i < 20; i++ {
		many = append(many, 0, i, 3)
	}
	many = append(many, 2, 0, 3, 0, 30, 9, 0, 31, 10, 1, 31, 0, 0, 32, 10, 2, 0, 7, 2, 0, 7)
	f.Add(many)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pool = 48
		w := NewWheel[int](8)
		q := NewMinQueue[qv](8, qvLess)
		items := make([]*Item[int], pool)
		entries := make([]*Entry[qv], pool)
		for i := range items {
			items[i] = NewItem(i)
			entries[i] = NewEntry(qv{id: i})
		}
		// The reference: each element's key while queued.
		wslot := map[int]int64{}
		qkey := map[int]int64{}
		cursor := int64(0)
		// near maps an argument to a key around the cursor: mostly just
		// ahead, sometimes behind, sometimes revolutions past the span.
		near := func(a byte, span int64) int64 {
			switch a >> 6 {
			case 0, 1:
				return cursor + int64(a&63)
			case 2:
				return max(0, cursor-int64(a&15))
			default:
				return cursor + int64(a&63) + span*int64(1+a&3)
			}
		}
		for len(ops) >= 3 {
			op, i, a := ops[0]%10, int(ops[1])%pool, ops[2]
			ops = ops[3:]
			switch op {
			case 0: // wheel Add
				if _, ok := wslot[i]; !ok {
					s := near(a, w.Span())
					if s < cursor && a&1 == 0 {
						// Keep most items at or past the cursor, so the
						// NextOccupied checks below mostly apply.
						s = cursor
					}
					w.Add(items[i], s)
					wslot[i] = s
				}
			case 1: // wheel Remove
				w.Remove(items[i])
				delete(wslot, i)
			case 2: // wheel Due at each of the next few slots, as the callers drain
				for n := 0; n <= int(a%8); n++ {
					got := slices.Clone(w.Due(cursor))
					slices.Sort(got)
					var want []int
					for j, s := range wslot {
						if s <= cursor && s&(w.Span()-1) == cursor&(w.Span()-1) {
							want = append(want, j)
							delete(wslot, j)
						}
					}
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("Due(%d) = %v, want %v", cursor, got, want)
					}
					cursor++
				}
			case 3: // wheel NextOccupied, whose contract needs nothing behind the cursor
				nx, ok := w.NextOccupied(cursor)
				want := int64(math.MaxInt64)
				for _, s := range wslot {
					want = min(want, s)
				}
				if ok != (len(wslot) > 0) || (ok && want >= cursor && nx != want) {
					t.Fatalf("NextOccupied(%d) = %d, %v; want %d over %d items", cursor, nx, ok, want, len(wslot))
				}
			case 4: // wheel EnsureSpan
				w.EnsureSpan(int64(a) * 3)
			case 5: // queue Add
				if _, ok := qkey[i]; !ok {
					k := near(a, q.Span())
					entries[i].Value.key = k
					q.Add(entries[i], k)
					qkey[i] = k
				}
			case 6: // queue Remove
				q.Remove(entries[i])
				delete(qkey, i)
			case 7: // queue PeekMin and PopMin
				best := -1
				for j, k := range qkey {
					if best < 0 || qvLess(qv{k, j}, qv{qkey[best], best}) {
						best = j
					}
				}
				v, k, ok := q.PeekMin()
				if ok != (best >= 0) {
					t.Fatalf("PeekMin ok = %v with %d queued", ok, len(qkey))
				}
				if !ok {
					continue
				}
				if want := (qv{qkey[best], best}); v != want || k != want.key {
					t.Fatalf("PeekMin = %+v (key %d), want %+v", v, k, want)
				}
				if got := q.PopMin(); got.id != best {
					t.Fatalf("PopMin = %+v, want id %d", got, best)
				}
				delete(qkey, best)
			case 8: // queue EnsureSpan
				q.EnsureSpan(int64(a) * 3)
			case 9: // wheel Reserve
				w.Reserve(int(a))
			}
			if w.Len() != len(wslot) || q.Len() != len(qkey) {
				t.Fatalf("Len: wheel %d (want %d), queue %d (want %d)", w.Len(), len(wslot), q.Len(), len(qkey))
			}
			for j, it := range items {
				if _, ok := wslot[j]; it.Queued() != ok {
					t.Fatalf("item %d Queued = %v, reference %v", j, it.Queued(), ok)
				}
			}
		}
	})
}

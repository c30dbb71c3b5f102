// Package calq provides the bucketed priority structures behind the
// scheduler's sublinear slot hot path: a calendar queue (timing wheel)
// for release timers and a deadline-bucketed min-queue for the eligible
// set.
//
// Both structures exploit the same property of Pfair/periodic workloads:
// the keys flowing through the queues — pseudo-release slots and
// pseudo-deadlines — are dense, near-monotone integers whose live span is
// bounded by the largest task period. Hashing a key into key mod W over a
// power-of-two W buckets therefore keeps each bucket tiny, so insertion
// and removal touch a handful of entries instead of sifting an O(log n)
// path through one global binary heap (the structure Section 4 of the
// paper measures, and the dominant cost in the Fig2 profiles).
//
// Both structures must also absorb a release storm — a synchronous
// release of every task, so one bucket holds a million items — at memory
// speed. A wheel bucket is therefore a FIFO of fixed-size chunks of item
// handles, not a linked list: draining it reads handles from contiguous
// memory instead of waiting on one cache miss per item to learn where
// the next one lives. A min-queue bucket is an intrusive pairing heap
// that remembers the last entry inserted: an insert that does not order
// before it becomes its child, so a sorted run of inserts forms a chain
// that pops in O(1) per entry rather than leaving every entry as a child
// of the root for the next pop to consolidate.
//
// Elements carry persistent handles (Item, Entry) allocated once per task
// at admission. The pairing heaps are intrusive, and the wheel's chunks
// come from a pool the wheel owns, filled by Reserve at admission to
// cover the worst layout of the reserved item count, so requeueing an
// element performs no allocation at all in steady state, not even
// amortized growth. Reserve also sizes the wheel's drain scratch.
//
// Neither structure assumes keys stay within the configured span: a key
// far outside it only degrades lookups to an exact scan over occupied
// buckets. Correctness never depends on the span, only performance.
package calq

import (
	"math"
	"math/bits"
)

// minBuckets is the smallest wheel size; spans below it round up so the
// occupancy bitset always holds whole 64-bit words.
const minBuckets = 64

// DefaultSpanCap is the bucket-table ceiling schedulers pass to
// EnsureSpan: spans beyond it trade real memory (a 2·span bucket table)
// for avoiding round mixing that the structures already handle correctly
// by exact scan. Callers with longer-spanning keys should clamp to this
// (slot-driven cores, where a revolution still amortizes) or keep a
// comparison-based structure (sparse event-driven simulators).
const DefaultSpanCap = 1 << 14

// chunkSize is the number of item handles in one wheel chunk: 128 bytes
// of handles, two cache lines, so a drain streams through them while a
// partly filled tail chunk per occupied bucket stays cheap.
const chunkSize = 16

// bitset is a two-level occupancy bitmap over bucket indices: one bit per
// bucket, plus a summary bit per 64-bucket word. next runs in O(W/4096)
// word probes worst case, a few loads in practice.
type bitset struct {
	words   []uint64
	summary []uint64
}

func newBitset(n int) bitset {
	nw := (n + 63) / 64
	return bitset{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)/64),
	}
}

//pfair:hotpath
func (b *bitset) set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
	b.summary[i>>12] |= 1 << (uint(i>>6) & 63)
}

//pfair:hotpath
func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// next returns the smallest set bit ≥ i, or −1 if none.
//
//pfair:hotpath
func (b *bitset) next(i int) int {
	nw := len(b.words)
	w := i >> 6
	if w >= nw {
		return -1
	}
	if rest := b.words[w] >> (uint(i) & 63); rest != 0 {
		return i + bits.TrailingZeros64(rest)
	}
	w++
	for w < nw {
		sw := w >> 6
		rest := b.summary[sw] >> (uint(w) & 63)
		if rest == 0 {
			w = (sw + 1) << 6
			continue
		}
		w += bits.TrailingZeros64(rest)
		return w<<6 | bits.TrailingZeros64(b.words[w])
	}
	return -1
}

// spanBuckets returns the wheel size for a key span: the smallest power
// of two at least twice the span (so a full span of live keys occupies at
// most half a revolution and rounds rarely mix), floored at minBuckets.
func spanBuckets(span int64) int64 {
	if span < 0 {
		span = 0
	}
	n := int64(minBuckets)
	for n < 2*span {
		n <<= 1
	}
	return n
}

// Item is one element of a Wheel, allocated once (NewItem) and reused for
// every insertion. It records where its handle sits in its bucket (chunk
// and index), so removal is an O(1) swap and queueing never allocates.
type Item[T any] struct {
	Value  T
	slot   int64
	chunk  *chunk[T] // chunk holding the handle; nil when not queued
	idx    int32     // index of the handle within chunk
	bucket int32
}

// NewItem returns an unqueued item carrying v.
func NewItem[T any](v T) *Item[T] { return &Item[T]{Value: v} }

// Queued reports whether the item is currently in a wheel.
func (it *Item[T]) Queued() bool { return it.chunk != nil }

// Slot returns the absolute slot the item was queued under (meaningful
// while Queued).
func (it *Item[T]) Slot() int64 { return it.slot }

// chunk is one segment of a wheel bucket: a bucket's n items fill its
// chunks in order, every chunk full but the tail. The links come first,
// so a bucket of one item touches one cache line of its chunk. A pooled
// chunk holds no handles, so the pool pins no items.
type chunk[T any] struct {
	next, prev *chunk[T]
	items      [chunkSize]*Item[T]
}

// wheelBucket is one residue class of a Wheel: a FIFO of item handles
// in chunks, plus its earliest queued slot. min is always a lower bound
// on the bucket's slots and exact unless stale (a Remove may have taken
// the minimum out); bucketMin recomputes it on demand.
type wheelBucket[T any] struct {
	head, tail *chunk[T]
	n          int32
	stale      bool
	min        int64
}

// Wheel is a calendar queue keyed by absolute slot: bucket slot mod W
// holds every queued item for that residue as a FIFO of handles. Due(t)
// drains the single bucket for slot t, so releasing the subtasks due at
// a slot costs one sequential pass over that bucket's handles instead of
// O(log n) heap pops — the calendar-queue half of the sublinear hot
// path.
type Wheel[T any] struct {
	mask    int64
	buckets []wheelBucket[T]
	occ     bitset
	n       int
	// free is the chunk pool, linked through next; chunks counts every
	// chunk the wheel owns, pooled or in a bucket. reserved is the
	// largest item count passed to Reserve.
	free     *chunk[T]
	chunks   int
	reserved int
	due      []T // scratch returned by Due, reused across calls
}

// NewWheel returns an empty wheel sized for keys spanning at most span
// slots ahead of the drain cursor (typically the maximum task period).
func NewWheel[T any](span int64) *Wheel[T] {
	w := &Wheel[T]{}
	w.grow(spanBuckets(span))
	return w
}

// Span returns the current bucket count W.
func (w *Wheel[T]) Span() int64 { return w.mask + 1 }

// Len returns the number of queued items.
//
//pfair:hotpath
func (w *Wheel[T]) Len() int { return w.n }

// Reserve sizes the wheel for up to n queued items, so Add and Due stay
// allocation-free as long as no more than n items are ever queued at
// once (one timer per live task makes the live task count a natural
// bound). It fills the chunk pool to ⌈n/C⌉ + min(W, n) chunks — every
// occupied bucket wastes at most one partly filled chunk — and grows the
// drain scratch to n. Both grow geometrically: admission calls Reserve
// once per join with n one larger each time, and growing to exactly n
// would allocate on every call. Neither ever shrinks, so both stay
// bounded by the high-water mark of n. Cold path: call at admission.
func (w *Wheel[T]) Reserve(n int) {
	if n > w.reserved {
		w.reserved = n
	}
	w.fill()
	if cap(w.due) < n {
		if min := 2 * cap(w.due); n < min {
			n = min
		}
		due := make([]T, 0, n)
		w.due = append(due, w.due...)
	}
}

// Footprint reports what the wheel holds on to for its reserved
// capacity: chunks owned (pooled or in buckets) and the drain scratch's
// capacity in items. Both are bounded by the largest n passed to Reserve
// (and the bucket count), never by how many items have passed through.
func (w *Wheel[T]) Footprint() (chunks, scratch int) { return w.chunks, cap(w.due) }

// fill tops the chunk pool up to the reserved layout's worst case,
// growing by at least a quarter of what the wheel already owns, so a
// stream of one-larger reservations allocates O(log n) times while the
// pool overshoots its worst case by at most 25%. Cold path: Reserve and
// grow.
func (w *Wheel[T]) fill() {
	n := w.reserved
	want := (n+chunkSize-1)/chunkSize + int(min(w.mask+1, int64(n)))
	if want <= w.chunks {
		return
	}
	w.refill(max(want-w.chunks, w.chunks/4))
}

// refill adds k fresh chunks to the pool in one slab. Cold path: fill,
// and take when an unreserved wheel runs dry.
func (w *Wheel[T]) refill(k int) {
	slab := make([]chunk[T], k)
	for i := range slab {
		slab[i].next = w.free
		w.free = &slab[i]
	}
	w.chunks += k
}

// take returns an empty chunk from the pool.
//
//pfair:hotpath
func (w *Wheel[T]) take() *chunk[T] {
	if w.free == nil {
		//pfair:coldcall Reserve pre-fills the pool for the worst layout of the reserved count; only an unreserved wheel gets here
		w.refill(1)
	}
	c := w.free
	w.free = c.next
	c.next, c.prev = nil, nil
	return c
}

// release returns the chunk list first…last (linked through next),
// whose handles the caller has already cleared, to the pool. Pooled
// chunks keep stale prev links; take resets both.
//
//pfair:hotpath
func (w *Wheel[T]) release(first, last *chunk[T]) {
	last.next = w.free
	w.free = first
}

// EnsureSpan grows the wheel (rehashing every queued item) so that span
// fits within half a revolution. Shrinking never happens. Cold path:
// called at admission time when a longer-period task joins.
func (w *Wheel[T]) EnsureSpan(span int64) {
	if need := spanBuckets(span); need > w.mask+1 {
		w.grow(need)
	}
}

// grow rebuilds the bucket table at nb buckets and requeues every item,
// each bucket's items in FIFO order. Cold path.
func (w *Wheel[T]) grow(nb int64) {
	var queued []*Item[T]
	for b := range w.buckets {
		bk := &w.buckets[b]
		for c := bk.head; c != nil; c = c.next {
			for _, it := range c.items[:bk.held(c)] {
				queued = append(queued, it)
				it.chunk = nil
			}
			clear(c.items[:])
		}
		if bk.head != nil {
			w.release(bk.head, bk.tail)
		}
	}
	w.mask = nb - 1
	w.buckets = make([]wheelBucket[T], nb)
	w.occ = newBitset(int(nb))
	w.n = 0
	w.fill()
	for _, it := range queued {
		w.Add(it, it.slot)
	}
}

// held returns how many handles chunk c of the bucket holds: chunkSize
// for all but the tail.
//
//pfair:hotpath
func (bk *wheelBucket[T]) held(c *chunk[T]) int {
	if c != bk.tail {
		return chunkSize
	}
	return int(bk.n-1)%chunkSize + 1
}

// Add queues the item under the given absolute slot, at the end of its
// bucket. It panics if the item is already queued.
//
//pfair:hotpath
func (w *Wheel[T]) Add(it *Item[T], slot int64) {
	if it.chunk != nil {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.PushItem
		panic("calq: Add of an item that is already in a wheel")
	}
	b := slot & w.mask
	bk := &w.buckets[b]
	i := bk.n % chunkSize
	if i == 0 {
		c := w.take()
		if bk.tail == nil {
			bk.head = c
			bk.min, bk.stale = slot, false
			w.occ.set(int(b))
		} else {
			bk.tail.next = c
			c.prev = bk.tail
		}
		bk.tail = c
	}
	if slot < bk.min {
		bk.min = slot
	}
	bk.tail.items[i] = it
	it.slot = slot
	it.chunk, it.idx = bk.tail, i
	it.bucket = int32(b)
	bk.n++
	w.n++
}

// Remove dequeues the item, moving its bucket's last item into its
// place. It is a no-op if the item is not queued.
//
//pfair:hotpath
func (w *Wheel[T]) Remove(it *Item[T]) {
	c := it.chunk
	if c == nil {
		return
	}
	b := int(it.bucket)
	bk := &w.buckets[b]
	bk.n--
	tail := bk.tail
	li := bk.n % chunkSize
	last := tail.items[li]
	c.items[it.idx] = last
	last.chunk, last.idx = c, it.idx
	tail.items[li] = nil
	it.chunk = nil
	w.n--
	if li == 0 {
		// The tail chunk emptied: hand it back.
		bk.tail = tail.prev
		if bk.tail == nil {
			bk.head = nil
			w.occ.clear(b)
		} else {
			bk.tail.next = nil
		}
		w.release(tail, tail)
	}
	if it.slot == bk.min {
		bk.stale = true
	}
}

// Due drains and returns every queued item whose slot is ≤ t, in the
// order they were queued (a Remove reorders its bucket: the bucket's last
// item takes the removed one's place). Only the single bucket t mod W is
// inspected: with the wheel sized to the workload's span and a cursor
// that visits every slot (the slot-driven core scheduler) or every armed
// slot (the event-driven simulators), that bucket contains exactly the
// due items. Items of a future round sharing the bucket stay queued,
// compacted to the bucket's front in order, and the pass that compacts
// them also recomputes the bucket's earliest slot. The returned slice is
// internal scratch, valid until the next Due call; size it with Reserve
// to keep this allocation-free.
//
//pfair:hotpath
func (w *Wheel[T]) Due(t int64) []T {
	w.due = w.due[:0]
	b := int(t & w.mask)
	bk := &w.buckets[b]
	if bk.n == 0 || bk.min > t {
		// min bounds the bucket's slots from below: nothing is due.
		return w.due
	}
	// Read every handle in order, clearing its slot; write the ones that
	// stay back at the cursor (wc, wi), which never passes the read
	// position.
	wc, wi := bk.head, int32(0)
	kept := int32(0)
	min := int64(math.MaxInt64)
	for c := bk.head; c != nil; c = c.next {
		held := c.items[:bk.held(c)]
		for i, it := range held {
			held[i] = nil
			if it.slot <= t {
				it.chunk = nil
				w.due = append(w.due, it.Value)
				continue
			}
			if wi == chunkSize {
				wc, wi = wc.next, 0
			}
			wc.items[wi] = it
			it.chunk, it.idx = wc, wi
			wi++
			kept++
			if it.slot < min {
				min = it.slot
			}
		}
	}
	w.n -= int(bk.n - kept)
	bk.n = kept
	if kept == 0 {
		w.release(bk.head, bk.tail)
		bk.head, bk.tail = nil, nil
		w.occ.clear(b)
		return w.due
	}
	if wc != bk.tail {
		w.release(wc.next, bk.tail)
		wc.next = nil
		bk.tail = wc
	}
	bk.min, bk.stale = min, false
	return w.due
}

// NextOccupied returns the smallest slot among all queued items and
// whether the wheel is non-empty. from is the drain cursor: no queued
// slot may lie before it (the callers have drained every slot before
// it), since the probe starts at from's bucket and an item behind it in
// an earlier bucket would go unseen. The common case — every queued slot
// within one revolution ahead of from — costs one bitmap probe plus a
// read of that bucket's cached minimum; round mixing is detected by
// comparing the candidate against the bucket minimum and answered by an
// exact scan over the occupied buckets.
//
//pfair:hotpath
func (w *Wheel[T]) NextOccupied(from int64) (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	start := from & w.mask
	b := w.occ.next(int(start))
	var cand int64
	if b >= 0 {
		cand = from + (int64(b) - start)
	} else {
		b = w.occ.next(0)
		cand = from + (int64(b) - start) + w.mask + 1
	}
	if min := w.bucketMin(b); min != cand {
		// An item in this bucket belongs to another round, so an
		// occupied bucket elsewhere may hold a smaller slot: fall back
		// to the exact scan.
		return w.scanMin(), true
	}
	return cand, true
}

// bucketMin returns the smallest slot in (non-empty) bucket b: the
// cached minimum, rescanned only after a Remove left it stale.
//
//pfair:hotpath
func (w *Wheel[T]) bucketMin(b int) int64 {
	bk := &w.buckets[b]
	if bk.stale {
		min := int64(math.MaxInt64)
		for c := bk.head; c != nil; c = c.next {
			for _, it := range c.items[:bk.held(c)] {
				if it.slot < min {
					min = it.slot
				}
			}
		}
		bk.min, bk.stale = min, false
	}
	return bk.min
}

// scanMin returns the smallest slot over every occupied bucket.
//
//pfair:hotpath
func (w *Wheel[T]) scanMin() int64 {
	b := w.occ.next(0)
	min := w.bucketMin(b)
	for {
		b = w.occ.next(b + 1)
		if b < 0 {
			return min
		}
		if m := w.bucketMin(b); m < min {
			min = m
		}
	}
}

// Entry is one element of a MinQueue, allocated once (NewEntry) and
// reused for every insertion. It embeds its bucket's pairing-heap links
// (child: first child; sib: next younger sibling; prev: parent for a
// first child, else the elder sibling), so queueing and dequeueing never
// allocate.
type Entry[T any] struct {
	Value  T
	key    int64
	bucket int32
	queued bool
	child  *Entry[T]
	sib    *Entry[T]
	prev   *Entry[T]
}

// NewEntry returns an unqueued entry carrying v.
func NewEntry[T any](v T) *Entry[T] { return &Entry[T]{Value: v} }

// Queued reports whether the entry is currently in a queue.
func (e *Entry[T]) Queued() bool { return e.queued }

// Key returns the key the entry was queued under (meaningful while
// Queued).
func (e *Entry[T]) Key() int64 { return e.key }

// heapBucket is one residue class of a MinQueue: the root of its
// pairing heap and the run tail, the entry inserted last while it is
// still queued (nil once it leaves).
type heapBucket[T any] struct {
	root, tail *Entry[T]
}

// MinQueue is a bucketed priority queue: entries hash by integer key
// (pseudo-deadline) into key mod W buckets, each bucket an intrusive
// pairing heap ordered by (key, less). PopMin locates the minimum-key
// bucket by bitmap probe from a monotone lower-bound cursor and pops
// that bucket's root, so extraction restructures one deadline-residue
// class — a handful of entries — rather than the whole eligible set.
//
// An insert that does not order before its bucket's run tail becomes the
// tail's child, and any other insert melds with the root. A sorted run
// of inserts — tasks joining in id order, or a wheel drain handing back
// subtasks in the order the last slots popped them — thus forms a chain,
// each entry one child of the previous, and pops in O(1) per entry; as
// children of the root, the next pop would have had to consolidate the
// whole run. Any tree shape satisfying heap order is a valid pairing
// heap, so this changes costs, never results.
//
// The pop order is exactly that of a single global heap ordered by
// (key, less): keys separate buckets, and a bucket's root is its
// (key, less)-minimum. With a total less (the scheduler's priority order
// ends in a task-id comparison) the extraction sequence is therefore
// bit-identical to the legacy binary heap's, which is what lets the
// scheduler swap structures without changing one scheduling decision.
type MinQueue[T any] struct {
	less    func(a, b T) bool
	mask    int64
	buckets []heapBucket[T]
	occ     bitset
	n       int
	// lo is a monotone conservative cursor: lo ≤ the minimum queued key
	// whenever the queue is non-empty. Add lowers it, PopMin advances it
	// to the popped key.
	lo int64
}

// NewMinQueue returns an empty queue for keys spanning at most span and
// ties ordered by less. less must be consistent with the key (it is
// consulted only between entries of equal key) and total if deterministic
// pop order is required.
func NewMinQueue[T any](span int64, less func(a, b T) bool) *MinQueue[T] {
	q := &MinQueue[T]{less: less}
	q.grow(spanBuckets(span))
	return q
}

// Span returns the current bucket count W.
func (q *MinQueue[T]) Span() int64 { return q.mask + 1 }

// Len returns the number of queued entries.
//
//pfair:hotpath
func (q *MinQueue[T]) Len() int { return q.n }

// EnsureSpan grows the queue (rehashing every entry) so that span fits
// within half a revolution. Cold path: admission time only.
func (q *MinQueue[T]) EnsureSpan(span int64) {
	if need := spanBuckets(span); need > q.mask+1 {
		q.grow(need)
	}
}

func (q *MinQueue[T]) grow(nb int64) {
	old := q.buckets
	q.mask = nb - 1
	q.buckets = make([]heapBucket[T], nb)
	q.occ = newBitset(int(nb))
	q.n = 0
	for _, bk := range old {
		q.readd(bk.root)
	}
}

// readd re-inserts the subtree rooted at e into the (fresh) bucket
// table, iteratively: children are walked before the node's links are
// cleared. Cold path, used by grow only.
func (q *MinQueue[T]) readd(e *Entry[T]) {
	for e != nil {
		next := e.sib
		child := e.child
		e.queued = false
		e.child, e.sib, e.prev = nil, nil, nil
		q.Add(e, e.key)
		q.readd(child)
		e = next
	}
}

// entryLess orders entries within a bucket: by key, ties by the caller's
// less. Comparing keys first keeps different rounds separated and skips
// the indirect call for the common distinct-key case.
//
//pfair:hotpath
func (q *MinQueue[T]) entryLess(a, b *Entry[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return q.less(a.Value, b.Value)
}

// link makes b the first child of a; a must not order after b.
//
//pfair:hotpath
func link[T any](a, b *Entry[T]) {
	b.prev = a
	b.sib = a.child
	if a.child != nil {
		a.child.prev = b
	}
	a.child = b
}

// meld links the two pairing-heap roots, returning the smaller as the
// new root with the larger as its first child.
//
//pfair:hotpath
func (q *MinQueue[T]) meld(a, b *Entry[T]) *Entry[T] {
	if q.entryLess(b, a) {
		a, b = b, a
	}
	link(a, b)
	return a
}

// mergePairs collapses a detached sibling list into one tree by the
// standard two-pass scheme (pair left to right, then meld right to
// left), implemented with in-place pointer reversal so no stack or
// scratch is needed.
//
//pfair:hotpath
func (q *MinQueue[T]) mergePairs(first *Entry[T]) *Entry[T] {
	if first == nil {
		return nil
	}
	// Pass 1: meld adjacent pairs, chaining the results into a reversed
	// list through sib.
	var paired *Entry[T]
	for first != nil {
		a := first
		b := a.sib
		if b == nil {
			a.sib, a.prev = paired, nil
			paired = a
			break
		}
		next := b.sib
		a.sib, a.prev = nil, nil
		b.sib, b.prev = nil, nil
		m := q.meld(a, b)
		m.sib = paired
		paired = m
		first = next
	}
	// Pass 2: the list is already right-to-left; fold it.
	root := paired
	paired = paired.sib
	root.sib = nil
	for paired != nil {
		next := paired.sib
		paired.sib = nil
		root = q.meld(root, paired)
		paired = next
	}
	root.prev = nil
	return root
}

// Add queues the entry under key. It panics if the entry is already
// queued.
//
//pfair:hotpath
func (q *MinQueue[T]) Add(e *Entry[T], key int64) {
	if e.queued {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.PushItem
		panic("calq: Add of an entry that is already in a queue")
	}
	b := key & q.mask
	e.key = key
	e.bucket = int32(b)
	e.queued = true
	e.child, e.sib, e.prev = nil, nil, nil
	bk := &q.buckets[b]
	switch tail := bk.tail; {
	case bk.root == nil:
		bk.root = e
		q.occ.set(int(b))
	case tail != nil && !q.entryLess(e, tail):
		// The run continues: every ancestor of tail orders before it.
		link(tail, e)
	case tail == bk.root:
		// e orders before the root itself (a descending run).
		link(e, tail)
		bk.root = e
	default:
		bk.root = q.meld(bk.root, e)
	}
	bk.tail = e
	if q.n == 0 || key < q.lo {
		q.lo = key
	}
	q.n++
}

// Remove dequeues the entry. It is a no-op if the entry is not queued.
//
//pfair:hotpath
func (q *MinQueue[T]) Remove(e *Entry[T]) {
	if !e.queued {
		return
	}
	b := int(e.bucket)
	bk := &q.buckets[b]
	if bk.tail == e {
		bk.tail = nil
	}
	if bk.root == e {
		bk.root = q.mergePairs(e.child)
		if bk.root == nil {
			q.occ.clear(b)
		}
	} else {
		// Detach e from its parent's child list, collapse its children
		// into one subtree, and meld that back with the root.
		if e.prev.child == e {
			e.prev.child = e.sib
		} else {
			e.prev.sib = e.sib
		}
		if e.sib != nil {
			e.sib.prev = e.prev
		}
		if sub := q.mergePairs(e.child); sub != nil {
			bk.root = q.meld(bk.root, sub)
		}
	}
	e.child, e.sib, e.prev = nil, nil, nil
	e.queued = false
	q.n--
}

// PopMin removes and returns the minimum entry under (key, less). It
// panics if the queue is empty.
//
//pfair:hotpath
func (q *MinQueue[T]) PopMin() T {
	if q.n == 0 {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.Pop
		panic("calq: PopMin of an empty queue")
	}
	b := q.minBucket()
	bk := &q.buckets[b]
	e := bk.root
	if bk.tail == e {
		bk.tail = nil
	}
	bk.root = q.mergePairs(e.child)
	if bk.root == nil {
		q.occ.clear(b)
	}
	e.child, e.sib, e.prev = nil, nil, nil
	e.queued = false
	q.n--
	q.lo = e.key
	return e.Value
}

// PeekMin returns the minimum entry under (key, less) and its key
// without removing it, or ok=false when the queue is empty. It performs
// the same bucket probe as PopMin but no heap surgery, so a consumer can
// inspect the next entry — the core scheduler reads the first subtask
// its selection left out — without disturbing the queue.
//
//pfair:hotpath
func (q *MinQueue[T]) PeekMin() (v T, key int64, ok bool) {
	if q.n == 0 {
		return v, 0, false
	}
	e := q.buckets[q.minBucket()].root
	return e.Value, e.key, true
}

// minBucket returns the index of the bucket holding the minimum-key
// entry. It probes the occupancy bitmap circularly from the lo cursor,
// accepting the first occupied bucket whose root key matches the
// cursor-derived candidate key (keys within one revolution of lo make
// this the common, O(1)-probe case). A full revolution without a match
// means the live keys span more than one round: fall back to the exact
// scan over occupied buckets.
//
//pfair:hotpath
func (q *MinQueue[T]) minBucket() int {
	d := q.lo
	w := q.mask + 1
	for scanned := int64(0); scanned <= w; {
		start := d & q.mask
		b := int64(q.occ.next(int(start)))
		if b < 0 {
			// Rest of this revolution is empty; wrap to bucket 0.
			scanned += w - start
			d += w - start
			continue
		}
		scanned += b - start
		d += b - start
		if q.buckets[b].root.key == d {
			return int(b)
		}
		// Occupied, but by another round's keys: skip past it.
		scanned++
		d++
	}
	return q.scanMinBucket()
}

// scanMinBucket returns the bucket with the smallest root key by
// scanning every occupied bucket. Roots are per-bucket minima and
// distinct buckets hold distinct key residues, so the smallest root is
// the global minimum and the answer is unique.
//
//pfair:hotpath
func (q *MinQueue[T]) scanMinBucket() int {
	b := q.occ.next(0)
	best := b
	min := q.buckets[b].root.key
	for {
		b = q.occ.next(b + 1)
		if b < 0 {
			return best
		}
		if k := q.buckets[b].root.key; k < min {
			min, best = k, b
		}
	}
}

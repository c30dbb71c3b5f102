package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

const mib = 1 << 20

// liveHeap collects garbage and returns the bytes of heap objects still
// in use. It stops the world; call it outside timed regions only.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapPeak is the largest live heap seen at a run's checkpoints (after
// each set-up and between repetitions). Each checkpoint forces a
// collection, so the figure counts what the workload holds, not how much
// garbage happened to be waiting, and also starts every repetition from
// a collected heap.
type heapPeak float64

func (h *heapPeak) mark() {
	if v := liveHeap(); v > float64(*h) {
		*h = heapPeak(v)
	}
}

func (h heapPeak) mib() float64 { return float64(h) / mib }

// gcState is a snapshot of the collector's counters.
type gcState struct {
	num        uint32
	pauseNs    uint64
	allocBytes uint64
}

func gcNow() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{num: ms.NumGC, pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
}

// addGC reports the bytes allocated, collections and pause time since
// the snapshot.
func (r *result) addGC(since gcState, what string) {
	now := gcNow()
	r.add("runtime.alloc_mb", float64(now.allocBytes-since.allocBytes)/mib, "heap allocated during "+what)
	r.add("runtime.gc_count", float64(now.num-since.num), "collections during "+what)
	r.add("runtime.gc_pause_ms", float64(now.pauseNs-since.pauseNs)/1e6, "stop-the-world pause during "+what)
}

// repeat calls fn until seconds have elapsed and at least min times. The
// work of one call is fixed; only the number of repetitions depends on
// the clock.
func repeat(seconds float64, min int, fn func(rep int) error) error {
	start := time.Now()
	for rep := 0; rep < min || time.Since(start).Seconds() < seconds; rep++ {
		if err := fn(rep); err != nil {
			return err
		}
	}
	return nil
}

// tailShare is the share of a repetition's items tail_ms sums.
const tailShare = 0.01

// itemStats collects each repetition's per-item host times. p50 and p99
// are medians over repetitions of each repetition's figure, which one
// disturbed repetition cannot move. The tail pools the repetitions: the
// slowest tailShare of all items, summed and divided by the number of
// repetitions, so a few stray slow items weigh less than in any one
// repetition.
type itemStats struct {
	p50, p99 []float64
	pooled   []float64
	n        int
}

// add records one repetition's per-item host times in ns. It sorts ns.
func (s *itemStats) add(ns []float64) {
	s.p50 = append(s.p50, quantile(ns, 0.5))
	s.p99 = append(s.p99, quantile(ns, 0.99))
	s.pooled = append(s.pooled, ns...)
	s.n = len(ns)
}

// report adds item_p50_us, item_p99_us and tail_ms; what names the item.
func (s *itemStats) report(r *result, what string) {
	reps := len(s.p50)
	beyond := s.n - int(math.Ceil(0.99*float64(s.n)))
	k := int(math.Ceil(tailShare * float64(s.n)))
	r.add("item_p50_us", median(s.p50)/1e3, fmt.Sprintf("%s; median over %d repetitions of %d items", what, reps, s.n))
	r.add("item_p99_us", median(s.p99)/1e3, fmt.Sprintf("%d items per repetition, %d beyond p99; median over %d", s.n, beyond, reps))
	r.add("tail_ms", tailSum(s.pooled, k*reps)/float64(reps)/1e6,
		fmt.Sprintf("slowest %g%% (%d) of a repetition's items, pooled over %d and summed per repetition", 100*tailShare, k, reps))
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span, −1 for a root; Start and End are nanoseconds since the
// traced pass began.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory; write saves them when
// the pass ends. A span's layer is its name up to the first dot.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	return sp.End - sp.Start
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfByLayer returns each layer's self time in nanoseconds: the summed
// durations of its spans minus the parts their child spans cover.
func (t *tracer) selfByLayer() map[string]int64 {
	self := map[string]int64{}
	for _, sp := range t.spans {
		self[layerOf(sp.Name)] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[layerOf(t.spans[sp.Parent].Name)] -= sp.End - sp.Start
		}
	}
	return self
}

// addSelf reports the self time of every layer the workload's spans
// cover.
func (r *result) addSelf(t *tracer) {
	for layer, ns := range t.selfByLayer() {
		r.add(layer+".self_ms", float64(ns)/1e6, fmt.Sprintf("self time of %s spans", layer))
	}
}

// write saves the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

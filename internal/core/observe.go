package core

import (
	"pfair/internal/obs"
)

// This file wires the observability layer (internal/obs) into the
// scheduler. The design constraint is PR 1's invariant: Step stays
// 0 allocs/op whether or not a recorder is attached, and costs one
// predictable branch per emission site when it is not. Hence:
//
//   - the scheduler holds concrete *obs.Recorder / *obs.SchedulerMetrics
//     pointers (nil = unobserved), never an interface — a nil interface
//     would still cost an itab check, and a no-op implementation would
//     still evaluate every event argument;
//   - every emission site is nil-guarded, which the extended hotpath
//     analyzer enforces statically and BenchmarkStepAllocsObserved pins
//     dynamically;
//   - identity is by dense int32 task ids assigned at admission, so hot
//     emissions never touch strings or maps.

// Observe attaches a trace recorder and/or metrics block to the
// scheduler; either may be nil. The attachment lives on the engine (the
// shared attachment point for every simulator); the scheduler caches the
// concrete pointers so hot emissions stay one nil check each. Tasks
// already admitted are registered immediately, tasks admitted later are
// registered as they join. Attaching mid-run is safe: events simply
// start at the current slot. Passing nil for both detaches observation
// entirely.
func (s *Scheduler) Observe(rec *obs.Recorder, met *obs.SchedulerMetrics) {
	s.eng.Observe(rec, met)
	s.adoptAttachments()
}

// adoptAttachments re-caches the engine's observability attachments,
// registers every live task with them, and reselects the eligible-set
// representation: recorder-traced runs use the legacy ready heap (whose
// comparator emits the tie-break trace events), runs without a recorder —
// including metrics-only ones — the bucketed fast path, whose comparator
// counts through cmpFast and whose shard telemetry Account publishes.
// Queued subtasks migrate between the structures.
func (s *Scheduler) adoptAttachments() {
	s.rec, s.met = s.eng.Recorder(), s.eng.Metrics()
	s.plane.Observe(s.rec, s.met)
	for _, st := range s.order {
		if !st.departed {
			s.registerObs(st)
		}
	}
	if s.met != nil && s.shardN > 0 {
		s.met.EnsureShards(s.shardN)
	}
	if sh := s.readySh; sh != nil {
		// Counter deltas start from the attach point: stealing that
		// happened before anyone was listening stays unpublished.
		s.shardSeen = sh.Stats()
	}
	s.updateMode()
}

// AllocObsID hands out the next dense observability id from the
// scheduler's allocator. Wrappers that trace entities of their own beside
// the scheduler's tasks (internal/supertask's components) draw from the
// same space so ids never collide, even when tasks join later.
func (s *Scheduler) AllocObsID() int32 {
	id := s.obsNext
	s.obsNext++
	return id
}

// Recorder returns the attached trace recorder, or nil.
func (s *Scheduler) Recorder() *obs.Recorder { return s.rec }

// Metrics returns the attached metrics block, or nil.
func (s *Scheduler) Metrics() *obs.SchedulerMetrics { return s.met }

// registerObs assigns st a stable observability id (once) and registers
// it with whatever sinks are attached. Cold path: runs at admission and
// Observe time only.
func (s *Scheduler) registerObs(st *tstate) {
	if s.rec == nil && s.met == nil {
		return
	}
	if st.obsID < 0 {
		st.obsID = s.obsNext
		s.obsNext++
	}
	if s.rec != nil {
		if s.rec.RegisterTask(st.obsID, st.task.Name) {
			// First time this recorder sees the task: emit its join event,
			// whether registration happens at admission or at a mid-run
			// Observe. The slot is the current slot either way. The
			// emission goes through the admission plane so every policy
			// narrates churn identically (the event bytes are unchanged).
			s.plane.EmitJoin(s.eng.Now(), st.obsID, st.task.Cost, st.task.Period)
		}
	}
	if met := s.met; met != nil {
		met.EnsureTask(st.obsID, st.task.Name, st.task.Period)
		// Observation starts here: fold the attach boundary (lag is zero
		// at an admission, so this matters only for a mid-run attach).
		s.foldLag(met.Task(st.obsID), st, s.eng.Now(), st.allocated)
	}
}

// cmpReady is the ready-queue ordering: the plain comparator when
// unobserved, and the tie-break-tracing variant when a recorder or
// metrics block is attached. The observed path reports which rule
// decided each deadline tie — the measurement behind the paper's claim
// that tie-breaks, not deadlines, are where Pfair algorithms differ.
//
//pfair:hotpath
func (s *Scheduler) cmpReady(a, b *tstate) bool {
	if s.rec == nil && s.met == nil {
		return less(s.alg, &a.pr, &b.pr)
	}
	if met := s.met; met != nil {
		met.HeapCmps.Inc()
	}
	res, why := lessWhy(s.alg, &a.pr, &b.pr)
	if why != byBBit && why != byGroup {
		return res
	}
	winner, loser := a, b
	if !res {
		winner, loser = b, a
	}
	kind := obs.EvTieBreakB
	if why == byGroup {
		kind = obs.EvTieBreakGroup
	}
	if met := s.met; met != nil {
		if why == byBBit {
			met.TieBreakB.Inc()
		} else {
			met.TieBreakGroup.Inc()
		}
	}
	if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{
			Slot: s.eng.Now(), Kind: kind,
			Task: winner.obsID, Proc: -1,
			A: int64(loser.obsID), B: winner.pr.deadline,
		})
	}
	return res
}

// cmpFast is the fast-mode (bucketed and sharded queues) equal-deadline
// comparator: the plain priority order when no metrics block is
// attached, and the counting variant when one is — comparator
// invocations and decided tie-breaks land in the metrics block exactly
// as cmpReady's do on the legacy heap, but no events are emitted, so
// fast mode needs no recorder. The returned order is identical either
// way; only counters move.
//
//pfair:hotpath
func (s *Scheduler) cmpFast(a, b *tstate) bool {
	if met := s.met; met != nil {
		met.HeapCmps.Inc()
		res, why := lessWhy(s.alg, &a.pr, &b.pr)
		if why == byBBit {
			met.TieBreakB.Inc()
		} else if why == byGroup {
			met.TieBreakGroup.Inc()
		}
		return res
	}
	return less(s.alg, &a.pr, &b.pr)
}

// foldLag folds st's |lag| at slot boundary tau, given the quanta
// allocated by tau, into the task's max-|lag| gauge, emitting an
// EvLagExtremum when the fold reaches a new maximum. Lag is kept exact
// as an integer pair: lag(τ) = wt·(τ − join) − allocated = (cost·(τ −
// join) − allocated·period) / period, so the numerator comparison below
// is the exact |lag| comparison with the denominator fixed per
// incarnation. (For IS tasks the value is the same formula against the
// unshifted fluid reference; per-subtask deadlines are their correctness
// notion, but the excursion is still worth plotting.) A nil tm (an id
// never registered) folds nothing.
//
// Lag is piecewise linear in τ: it rises by wt per unscheduled slot and
// falls by 1 − wt per scheduled one, so its extrema lie at the start of
// the task's observation (its join, or the attach slot), at both
// boundaries of each dispatched slot, and at its end (the departure slot,
// or Now() when FinishMisses closes the run). Folding exactly those
// boundaries — from registerObs, Dispatch, applyLeaves and FinishMisses —
// yields the maximum a scan of every boundary would, at a cost that
// tracks dispatches rather than the tasks ever admitted.
//
// Like every other event the scheduler emits, EvLagExtremum carries the
// engine's current slot: the dispatched slot for both of its boundaries,
// the departure slot, the attach slot, and Now() for the end-of-run
// fold. The boundary τ is that slot or the next, and the ring stays in
// non-decreasing slot order.
//
//pfair:hotpath
func (s *Scheduler) foldLag(tm *obs.TaskMetrics, st *tstate, tau, allocated int64) {
	if tm != nil {
		num := st.task.Cost*(tau-st.joinedAt) - allocated*st.task.Period
		if num < 0 {
			num = -num
		}
		if num > tm.MaxAbsLagNum.Value() {
			tm.MaxAbsLagNum.Set(num)
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{
					Slot: s.eng.Now(), Kind: obs.EvLagExtremum,
					Task: st.obsID, Proc: -1,
					A: num, B: st.task.Period,
				})
			}
		}
	}
}

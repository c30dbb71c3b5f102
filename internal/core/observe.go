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

// adoptAttachments re-caches the engine's observability attachments and
// registers every live task with them. The eligible set is untouched:
// attachments change what is counted and narrated, not which structure
// selects.
func (s *Scheduler) adoptAttachments() {
	s.rec, s.met = s.eng.Recorder(), s.eng.Metrics()
	s.plane.Observe(s.rec, s.met)
	for _, st := range s.order {
		if !st.departed {
			s.registerObs(st)
		}
	}
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

// cmpFast is the ready queue's equal-deadline comparator: the plain
// priority order, counting invocations into the metrics block when one
// is attached. The order is identical either way; only the counter
// moves.
//
//pfair:hotpath
func (s *Scheduler) cmpFast(a, b *tstate) bool {
	if met := s.met; met != nil {
		met.HeapCmps.Inc()
	}
	return less(s.alg, &a.pr, &b.pr)
}

// observeTie narrates the slot's deciding tie-break. Section 2 says the
// Pfair algorithms differ only in how they break deadline ties, and the
// one tie that changes who runs in a slot sits at the selection
// boundary: between last, the last subtask selected, and the first
// subtask left in the ready queue. When the two share a deadline and the
// b-bit or group-deadline rule ordered them, observeTie counts it
// (TieBreakB/TieBreakGroup) and emits one event naming last as the
// winner, the first rejected subtask as the loser (A), and the deadline
// (B). So a slot yields at most one tie-break, and counters and events
// agree whether or not a recorder is attached. Pick calls it only when
// all m processors were filled and something is observing.
//
//pfair:hotpath
func (s *Scheduler) observeTie(t int64, last *tstate) {
	next, _, ok := s.ready.PeekMin()
	if !ok || next.deadline != last.deadline {
		return
	}
	_, why := lessWhy(s.alg, &last.pr, &next.pr)
	kind := obs.EvTieBreakB
	switch why {
	case byBBit:
		if met := s.met; met != nil {
			met.TieBreakB.Inc()
		}
	case byGroup:
		kind = obs.EvTieBreakGroup
		if met := s.met; met != nil {
			met.TieBreakGroup.Inc()
		}
	default:
		return
	}
	if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{
			Slot: t, Kind: kind,
			Task: last.obsID, Proc: -1,
			A: int64(next.obsID), B: last.deadline,
		})
	}
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

package obs

import (
	"encoding/json"
	"io"
)

// This file exports a recorded schedule as Chrome trace-event JSON (the
// format Perfetto and chrome://tracing load): one lane per processor
// under the "processors" process, one lane per task under the "tasks"
// process, and a "scheduler" lane for decision events. Schedule events
// in consecutive slots on the same processor merge into one span, so a
// task running unpreempted for k slots renders as one k-slot block —
// migrations and preemptions are then visible as span boundaries.
//
// The exporter runs after the simulation (cold path); it allocates
// freely.

// Chrome trace-event constants. pid selects the top-level group
// ("process") a lane belongs to; tid the lane within it.
const (
	chromePidProcs = 0       // per-processor lanes
	chromePidTasks = 1       // per-task lanes
	schedulerTid   = 1 << 20 // decision lane inside the processor group
)

// ChromeTraceOptions tunes the export.
type ChromeTraceOptions struct {
	// SlotMicros is the rendered length of one slot in microseconds
	// (trace-event timestamps are in µs). 0 means 1000 (1 ms per slot).
	SlotMicros int64
	// Procs forces lanes for processors [0, Procs) even if some were
	// never scheduled on; 0 infers lanes from the events.
	Procs int
	// Extra is merged into the file's top-level otherData object — run
	// configuration (algorithm, processor count) a consumer like
	// cmd/pfairtrace reads back. The exporter's reserved keys
	// (slotMicros, totalEvents, retainedEvents, droppedEvents) win over
	// Extra on collision.
	Extra map[string]any
}

// chromeEvent is one trace-event record. Fields follow the Trace Event
// Format; omitempty keeps metadata events minimal. Args is a map, which
// encoding/json marshals with sorted keys, so output is deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int64          `json:"pid"`
	Tid   int64          `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// OtherData is the trace-event format's free-form metadata object.
	// The exporter records the slot scale and the ring accounting there —
	// droppedEvents > 0 is how a consumer distinguishes a silently
	// truncated (wrapped-ring) trace from a complete one.
	OtherData map[string]any `json:"otherData"`
}

// run is one maximal span of consecutive slots a task spent on one
// processor.
type run struct {
	task       int32
	proc       int32
	start, end int64 // slots, inclusive
	firstSub   int64
	lastSub    int64
}

// WriteChromeTrace writes the recorder's retained events as Chrome
// trace-event JSON. Load the output in https://ui.perfetto.dev or
// chrome://tracing.
//
// Task lanes are named only for the tasks the retained events mention
// (as the event's task, or as a tie-break's loser), so the export's size
// tracks the ring, not every task ever registered: a wrapped ring from a
// long churning run names the tasks of its retained suffix only.
func WriteChromeTrace(w io.Writer, rec *Recorder, opt ChromeTraceOptions) error {
	unit := opt.SlotMicros
	if unit <= 0 {
		unit = 1000
	}
	events := rec.Events()

	maxProc := int32(opt.Procs) - 1
	var mentioned []bool // task id → some retained event names it
	mention := func(id int32) {
		if id < 0 {
			return
		}
		for int(id) >= len(mentioned) {
			mentioned = append(mentioned, false)
		}
		mentioned[id] = true
	}
	for _, e := range events {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		mention(e.Task)
		if e.Kind == EvTieBreakB || e.Kind == EvTieBreakGroup {
			mention(int32(e.A))
		}
	}

	var out []chromeEvent
	meta := func(pid, tid int64, key, name string) {
		out = append(out, chromeEvent{
			Name: key, Phase: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(chromePidProcs, 0, "process_name", "processors")
	meta(chromePidTasks, 0, "process_name", "tasks")
	for k := int32(0); k <= maxProc; k++ {
		meta(chromePidProcs, int64(k), "thread_name", "CPU "+itoa(int64(k)))
	}
	for id, ok := range mentioned {
		if ok {
			meta(chromePidTasks, int64(id), "thread_name", rec.TaskName(int32(id)))
		}
	}
	meta(chromePidProcs, schedulerTid, "thread_name", "scheduler decisions")

	// Merge consecutive EvSchedule events into runs; everything else
	// becomes an instant on the relevant lane(s).
	open := make([]*run, len(mentioned)) // task id → current run
	flush := func(r *run) {
		dur := (r.end - r.start + 1) * unit
		args := map[string]any{
			"task":     rec.TaskName(r.task),
			"subtasks": itoa(r.firstSub) + "-" + itoa(r.lastSub),
		}
		out = append(out, chromeEvent{
			Name: rec.TaskName(r.task), Phase: "X", Cat: "schedule",
			Ts: r.start * unit, Dur: dur, Pid: chromePidProcs, Tid: int64(r.proc), Args: args,
		})
		out = append(out, chromeEvent{
			Name: "CPU " + itoa(int64(r.proc)), Phase: "X", Cat: "schedule",
			Ts: r.start * unit, Dur: dur, Pid: chromePidTasks, Tid: int64(r.task), Args: args,
		})
	}
	instant := func(e Event, name string, args map[string]any) {
		ev := chromeEvent{
			Name: name, Phase: "i", Scope: "t", Cat: "event",
			Ts: e.Slot * unit, Pid: chromePidTasks, Tid: int64(e.Task), Args: args,
		}
		if e.Task < 0 {
			ev.Pid, ev.Tid = chromePidProcs, int64(e.Proc)
		}
		out = append(out, ev)
	}

	for _, e := range events {
		switch e.Kind {
		case EvSchedule:
			if e.Task < 0 {
				continue // no lane to draw an unregistered task's run on
			}
			if r := open[e.Task]; r != nil {
				if r.proc == e.Proc && e.Slot == r.end+1 {
					r.end = e.Slot
					r.lastSub = e.A
					continue
				}
				flush(r)
			}
			open[e.Task] = &run{task: e.Task, proc: e.Proc, start: e.Slot, end: e.Slot, firstSub: e.A, lastSub: e.A}
		case EvRelease:
			instant(e, "release", map[string]any{"subtask": e.A, "deadline": e.B})
		case EvMiss:
			instant(e, "deadline-miss", map[string]any{"subtask": e.A, "deadline": e.B})
		case EvMigrate:
			instant(e, "migration", map[string]any{"from": e.A, "to": e.Proc, "subtask": e.B})
		case EvPreempt:
			instant(e, "preemption", map[string]any{"subtask": e.A, "proc": e.Proc})
		case EvJoin:
			instant(e, "join", map[string]any{"cost": e.A, "period": e.B})
		case EvLeave:
			instant(e, "leave", map[string]any{"allocated": e.A})
		case EvLagExtremum:
			instant(e, "lag-extremum", map[string]any{"num": e.A, "den": e.B})
		case EvReweight:
			instant(e, "reweight", map[string]any{"cost": e.A, "period": e.B})
		case EvTieBreakB, EvTieBreakGroup:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Phase: "i", Scope: "t", Cat: "decision",
				Ts: e.Slot * unit, Pid: chromePidProcs, Tid: schedulerTid,
				Args: map[string]any{
					"winner": rec.TaskName(e.Task), "loser": rec.TaskName(int32(e.A)), "deadline": e.B,
				},
			})
		case EvIdle:
			// Idle renders as the absence of a span; no event needed.
		}
	}
	// Flush remaining runs in task-id order for deterministic output.
	for _, r := range open {
		if r != nil {
			flush(r)
		}
	}

	od := map[string]any{}
	for k, v := range opt.Extra { //pfair:orderinvariant keys are copied into a map encoding/json marshals with sorted keys
		od[k] = v
	}
	od["slotMicros"] = unit
	od["totalEvents"] = rec.Total()
	od["retainedEvents"] = len(events)
	od["droppedEvents"] = rec.Dropped()

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms", OtherData: od})
}

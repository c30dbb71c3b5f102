// Command tracecheck validates a Chrome trace-event JSON file (as written
// by pfairsim -trace / internal/obs.WriteChromeTrace) against the subset
// of the trace-event format the exporter promises, so CI can prove the
// artifact Perfetto loads is well-formed without a browser:
//
//   - the file is a JSON object with a traceEvents array;
//   - every event has a non-empty name, a phase in {X, i, M}, and
//     numeric, non-negative ts/pid/tid;
//   - complete events (ph=X) carry a non-negative dur;
//   - metadata events (ph=M) carry args.name;
//   - X spans never overlap within one (pid, tid) lane — the invariant
//     that makes the per-processor and per-task lanes renderable;
//   - instant events carry the args pfairtrace reconstructs from:
//     release/deadline-miss need numeric subtask and deadline, migration
//     needs numeric from and to;
//   - otherData, when present, carries a positive slotMicros and ring
//     accounting with totalEvents = retainedEvents + droppedEvents — the
//     contract that lets a consumer tell a truncated trace from a
//     complete one.
//
// Usage:
//
//	tracecheck [-require name,name,...] [-spans] trace.json
//
// -require fails unless every named event kind appears at least once;
// -spans fails unless both the processor group (pid 0) and the task group
// (pid 1) contain at least one X span.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Pid  *float64        `json:"pid"`
	Tid  *float64        `json:"tid"`
	Args json.RawMessage `json:"args"`
}

func main() {
	require := flag.String("require", "", "comma-separated event names that must appear")
	spans := flag.Bool("spans", false, "require X spans in both the processor (pid 0) and task (pid 1) groups")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require names] [-spans] trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	summary, err := check(path, raw, *require, *spans)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(summary)
}

// check validates one trace file's bytes (path names it in messages)
// and returns the one-line summary main prints: the event count and a
// per-name tally.
func check(path string, raw []byte, require string, spans bool) (string, error) {
	// The trace-event format is open: events may carry cat, s, cname, …
	// beyond the fields we validate, so decode loosely.
	var file struct {
		TraceEvents     []event        `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return "", fmt.Errorf("%s: not a trace-event JSON object: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		return "", fmt.Errorf("%s: traceEvents is empty", path)
	}
	if file.OtherData != nil {
		odNum := func(key string) (float64, bool) {
			v, ok := file.OtherData[key].(float64)
			return v, ok
		}
		if u, ok := odNum("slotMicros"); !ok || u <= 0 {
			return "", fmt.Errorf("%s: otherData.slotMicros missing or not a positive number", path)
		}
		var ring [3]float64
		for i, key := range []string{"totalEvents", "retainedEvents", "droppedEvents"} {
			v, ok := odNum(key)
			if !ok || v < 0 {
				return "", fmt.Errorf("%s: otherData.%s missing or negative", path, key)
			}
			ring[i] = v
		}
		if ring[0] != ring[1]+ring[2] {
			return "", fmt.Errorf("%s: otherData ring accounting inconsistent: totalEvents %v != retainedEvents %v + droppedEvents %v",
				path, ring[0], ring[1], ring[2])
		}
	}

	seen := map[string]int{}
	spanPids := map[float64]int{}
	type lane struct{ pid, tid float64 }
	laneSpans := map[lane][][2]float64{} // [start, end) per lane
	for i, e := range file.TraceEvents {
		where := fmt.Sprintf("%s: event %d (%q)", path, i, e.Name)
		if e.Name == "" {
			return "", fmt.Errorf("%s: missing name", where)
		}
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			return "", fmt.Errorf("%s: missing ts/pid/tid", where)
		}
		if *e.Ts < 0 {
			return "", fmt.Errorf("%s: negative ts %v", where, *e.Ts)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return "", fmt.Errorf("%s: complete event without non-negative dur", where)
			}
			spanPids[*e.Pid]++
			l := lane{*e.Pid, *e.Tid}
			laneSpans[l] = append(laneSpans[l], [2]float64{*e.Ts, *e.Ts + *e.Dur})
		case "i":
			// Instant events; scope (s) is optional in the format. The
			// kinds pfairtrace reconstructs from must carry their numeric
			// payload args.
			var need []string
			switch e.Name {
			case "release", "deadline-miss":
				need = []string{"subtask", "deadline"}
			case "migration":
				need = []string{"from", "to"}
			}
			if need != nil {
				var args map[string]any
				if err := json.Unmarshal(e.Args, &args); err != nil {
					return "", fmt.Errorf("%s: %s instant without decodable args", where, e.Name)
				}
				for _, key := range need {
					if _, ok := args[key].(float64); !ok {
						return "", fmt.Errorf("%s: %s instant without numeric args.%s", where, e.Name, key)
					}
				}
			}
		case "M":
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil || args.Name == "" {
				return "", fmt.Errorf("%s: metadata event without args.name", where)
			}
		default:
			return "", fmt.Errorf("%s: unexpected phase %q (exporter emits X, i, M only)", where, e.Ph)
		}
		seen[e.Name]++
	}

	for l, ss := range laneSpans { //pfair:orderinvariant each lane is validated independently; failure aborts with the first offending lane's data
		sort.Slice(ss, func(i, j int) bool { return ss[i][0] < ss[j][0] })
		for i := 1; i < len(ss); i++ {
			if ss[i][0] < ss[i-1][1] {
				return "", fmt.Errorf("%s: overlapping spans on lane pid=%v tid=%v: [%v,%v) and [%v,%v)",
					path, l.pid, l.tid, ss[i-1][0], ss[i-1][1], ss[i][0], ss[i][1])
			}
		}
	}

	if spans {
		for _, pid := range []float64{0, 1} {
			if spanPids[pid] == 0 {
				group := "processor"
				if pid == 1 {
					group = "task"
				}
				return "", fmt.Errorf("%s: no X spans in the %s group (pid %v)", path, group, pid)
			}
		}
	}
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && seen[name] == 0 {
				return "", fmt.Errorf("%s: required event %q never appears", path, name)
			}
		}
	}

	names := make([]string, 0, len(seen))
	for n := range seen { //pfair:orderinvariant collects keys for sorting
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d events OK;", path, len(file.TraceEvents))
	for _, n := range names {
		fmt.Fprintf(&sb, " %s=%d", n, seen[n])
	}
	return sb.String(), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

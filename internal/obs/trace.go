package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// State-timeline tracing. A TraceRecorder accumulates two kinds of
// facts: per-disk state timelines (each disk's spin-state transitions,
// appended by whichever shard goroutine owns the disk — single-writer
// per track, so no locking) and run-level events (rebuild spans,
// migrations, controller actuations, per-window counters), which are
// appended only at simulation boundaries while every shard is parked.
// WriteChromeTrace renders both as Chrome-trace JSON that loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing: disks
// are threads of process 1, run-level tracks are threads of process 2,
// and simulated seconds map to trace microseconds.
//
// Determinism: a run's recorded facts are a pure function of
// (spec, seed) — each disk's transition sequence is identical at any
// worker count (the byte-identity property), and boundary events are
// recorded in boundary order, which is also shard-count-invariant.
// WriteChromeTrace serializes tracks in disk-ID order and events in
// append order with no timestamps or map-order dependence, so the
// output bytes are identical across repeats and worker counts.

// TraceEvent is one run-level trace event.
type TraceEvent struct {
	// Name labels the event.
	Name string
	// Phase is the Chrome-trace phase: 'i' (instant), 'X' (complete
	// span), or 'C' (counter series).
	Phase byte
	// Track names the run-level track (rendered as a thread of the
	// run process): "control", "reliability", "windows", ...
	Track string
	// At is the event time in simulated seconds ('X': span start).
	At float64
	// Dur is the span length in simulated seconds ('X' only).
	Dur float64
	// Args are optional key→value details ('C': the counter series
	// values). Values must be JSON-marshalable; keys render sorted.
	Args map[string]any
}

// statePoint is one timeline entry: the track entered state at time at.
type statePoint struct {
	at    float64
	state uint8
}

// TraceRecorder accumulates state timelines and run-level events. All
// methods are safe on a nil receiver (the disabled path records
// nothing). StateChange calls for one track must come from a single
// goroutine at a time; Emit and the remaining methods must be called
// with no concurrent StateChange in flight (in the simulator both run
// at boundaries with every shard parked).
type TraceRecorder struct {
	stateNames []string
	tracks     [][]statePoint
	events     []TraceEvent
	horizon    float64
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

// InitTracks sizes the recorder for n state-timeline tracks whose
// state values index stateNames. No-op on nil.
func (r *TraceRecorder) InitTracks(n int, stateNames []string) {
	if r == nil {
		return
	}
	r.stateNames = append([]string(nil), stateNames...)
	r.tracks = make([][]statePoint, n)
}

// StateChange records that track entered state at time at (simulated
// seconds). The previous state is considered to end here. No-op on nil
// or out-of-range tracks.
func (r *TraceRecorder) StateChange(track int, at float64, state int) {
	if r == nil || track < 0 || track >= len(r.tracks) {
		return
	}
	r.tracks[track] = append(r.tracks[track], statePoint{at: at, state: uint8(state)})
}

// Emit appends one run-level event. No-op on nil.
func (r *TraceRecorder) Emit(ev TraceEvent) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
}

// SetHorizon sets the run horizon in simulated seconds; each track's
// final state is rendered as lasting until the horizon (or until its
// last transition, whichever is later — an interrupted run's partial
// timelines stay well-formed). No-op on nil.
func (r *TraceRecorder) SetHorizon(h float64) {
	if r == nil {
		return
	}
	r.horizon = h
}

// Events returns the recorded run-level events (read-only; nil on a
// nil recorder).
func (r *TraceRecorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	return r.events
}

// chromeEvent is the JSON shape of one Chrome-trace event. Fields
// marshal in declaration order and Args maps render with sorted keys,
// so serialization is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Process IDs in the rendered trace: disks and run-level tracks.
const (
	diskPid = 1
	runPid  = 2
)

// usec converts simulated seconds to trace microseconds.
func usec(s float64) float64 { return s * 1e6 }

// WriteChromeTrace renders the recording as a Chrome-trace JSON object
// ({"displayTimeUnit":...,"traceEvents":[...]}). Safe on a nil
// recorder (writes an empty trace).
func (r *TraceRecorder) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, r.render)
}

// writeChromeTrace writes the Chrome-trace container — the run trace
// and the sweep-span trace alike — around the events render emits,
// marshalling one chromeEvent per event.
func writeChromeTrace(w io.Writer, render func(emit func(chromeEvent) error) error) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	if err := render(emit); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// render walks the recording in deterministic order: metadata, then
// per-disk span timelines in disk-ID order, then run-level events in
// append order. A nil recorder emits nothing.
func (r *TraceRecorder) render(emit func(chromeEvent) error) error {
	if r == nil {
		return nil
	}
	meta := func(pid, tid int, kind, name string) error {
		return emit(chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	// Run-level track tids in order of first appearance in the event
	// stream (deterministic because the stream is).
	runTid := map[string]int{}
	var runTracks []string
	for _, ev := range r.events {
		if _, ok := runTid[ev.Track]; !ok {
			runTid[ev.Track] = len(runTracks)
			runTracks = append(runTracks, ev.Track)
		}
	}

	if len(r.tracks) > 0 {
		if err := meta(diskPid, 0, "process_name", "disks"); err != nil {
			return err
		}
	}
	if len(runTracks) > 0 {
		if err := meta(runPid, 0, "process_name", "run"); err != nil {
			return err
		}
		for tid, name := range runTracks {
			if err := meta(runPid, tid, "thread_name", name); err != nil {
				return err
			}
		}
	}

	for tid, tl := range r.tracks {
		if len(tl) == 0 {
			continue
		}
		if err := meta(diskPid, tid, "thread_name", fmt.Sprintf("disk %d", tid)); err != nil {
			return err
		}
		for i, p := range tl {
			end := r.horizon
			if i+1 < len(tl) {
				end = tl[i+1].at
			} else if end < p.at {
				end = p.at
			}
			dur := usec(end - p.at)
			if err := emit(chromeEvent{
				Name: r.stateName(p.state), Ph: "X", Pid: diskPid, Tid: tid,
				Ts: usec(p.at), Dur: &dur,
			}); err != nil {
				return err
			}
		}
	}

	for _, ev := range r.events {
		ce := chromeEvent{
			Name: ev.Name, Pid: runPid, Tid: runTid[ev.Track],
			Ts: usec(ev.At), Args: ev.Args,
		}
		switch ev.Phase {
		case 'X':
			ce.Ph = "X"
			dur := usec(ev.Dur)
			ce.Dur = &dur
		case 'C':
			ce.Ph = "C"
		default:
			ce.Ph = "i"
			ce.S = "g"
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	return nil
}

// stateName resolves a state value to its display name.
func (r *TraceRecorder) stateName(s uint8) string {
	if int(s) < len(r.stateNames) {
		return r.stateNames[s]
	}
	return fmt.Sprintf("state-%d", s)
}

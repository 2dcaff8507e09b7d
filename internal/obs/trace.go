package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
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

// Timeline chunk capacities, in points: a track's first chunk holds
// firstChunk points and each later one twice its predecessor, up to
// maxChunk (64 KiB).
const (
	firstChunk = 4
	maxChunk   = 4096
)

// timeline is one track's state points, in order, stored in chunks
// that are never copied once allocated. Recording n points allocates
// about n points' worth of memory; a single appended slice would
// allocate several times that across its regrowths and copy every
// point each time.
type timeline [][]statePoint

// add appends p, opening a new chunk when the last one is full.
func (t *timeline) add(p statePoint) {
	n := len(*t)
	if n == 0 || len((*t)[n-1]) == cap((*t)[n-1]) {
		size := firstChunk
		if n > 0 {
			size = min(2*cap((*t)[n-1]), maxChunk)
		}
		*t = append(*t, make([]statePoint, 0, size))
		n++
	}
	(*t)[n-1] = append((*t)[n-1], p)
}

// TraceRecorder accumulates state timelines and run-level events. All
// methods are safe on a nil receiver (the disabled path records
// nothing). StateChange calls for one track must come from a single
// goroutine at a time; Emit and the remaining methods must be called
// with no concurrent StateChange in flight (in the simulator both run
// at boundaries with every shard parked).
type TraceRecorder struct {
	stateNames []string
	tracks     []timeline
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
	r.tracks = make([]timeline, n)
}

// StateChange records that track entered state at time at (simulated
// seconds). The previous state is considered to end here. No-op on nil
// or out-of-range tracks.
func (r *TraceRecorder) StateChange(track int, at float64, state int) {
	if r == nil || track < 0 || track >= len(r.tracks) {
		return
	}
	r.tracks[track].add(statePoint{at: at, state: uint8(state)})
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

// chromeEvent is the JSON shape of one Chrome-trace event: appendEvent
// writes it byte for byte as encoding/json marshals it (FuzzChromeEvent
// holds the two equal) — fields in declaration order, Args keys sorted
// — so serialization is deterministic.
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
// and the sweep-span trace alike — around the events render encodes.
func writeChromeTrace(w io.Writer, render func(*traceEncoder) error) error {
	e := &traceEncoder{w: w, buf: make([]byte, 0, traceFlushSize+traceEventSlack)}
	e.buf = append(e.buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)
	if err := render(e); err != nil {
		return err
	}
	e.buf = append(e.buf, "\n]}\n"...)
	return e.flush()
}

// traceFlushSize is how many encoded bytes a traceEncoder holds before
// it writes them out; traceEventSlack is the room left past it for the
// event that crosses it, so the buffer is allocated once.
const (
	traceFlushSize  = 64 << 10
	traceEventSlack = 4 << 10
)

// traceEncoder encodes Chrome-trace events, separated by ",\n", into
// one reused buffer and writes the buffer to w whenever it passes
// traceFlushSize. A failed event leaves nothing in the buffer.
type traceEncoder struct {
	w      io.Writer
	buf    []byte
	events int
}

// event encodes ev as encoding/json marshals it.
func (e *traceEncoder) event(ev *chromeEvent) error {
	b, err := appendEvent(e.open(), ev)
	return e.close(b, err)
}

// segment encodes one disk-state span — the chromeEvent {name, "X",
// diskPid, tid, ts, &dur} — from its head, the event up to ts's value,
// and its two floats.
func (e *traceEncoder) segment(head []byte, ts, dur float64) error {
	b, err := appendFloat(append(e.open(), head...), ts)
	if err == nil {
		b, err = appendFloat(append(b, `,"dur":`...), dur)
	}
	return e.close(append(b, '}'), err)
}

// segmentHeads holds a disk track's segment heads: each state's span
// event up to its ts value, {"name":…,"ph":"X","pid":1,"tid":…,"ts":.
// A track's named states are encoded once, into a buffer reused from
// track to track.
type segmentHeads struct {
	r       *TraceRecorder
	tid     int
	buf     []byte
	named   [][]byte // named[s] is state s's head, in buf
	unnamed []byte
}

// newSegmentHeads sizes r's head buffers once: a head is its name and
// under 64 bytes more unless json escapes the name.
func newSegmentHeads(r *TraceRecorder) segmentHeads {
	size := 0
	for _, name := range r.stateNames {
		size += len(name) + 64
	}
	return segmentHeads{r: r, buf: make([]byte, 0, size), named: make([][]byte, 0, len(r.stateNames))}
}

// encode encodes track tid's named heads.
func (h *segmentHeads) encode(tid int) {
	h.tid, h.buf, h.named = tid, h.buf[:0], h.named[:0]
	for _, name := range h.r.stateNames {
		start := len(h.buf)
		h.buf = appendLabels(h.buf, name, "X", diskPid, tid)
		h.named = append(h.named, h.buf[start:])
	}
}

// of returns state s's head; a state without a name is encoded anew.
func (h *segmentHeads) of(s uint8) []byte {
	if int(s) < len(h.named) {
		return h.named[s]
	}
	h.unnamed = appendLabels(h.unnamed[:0], h.r.stateName(s), "X", diskPid, h.tid)
	return h.unnamed
}

// open returns the buffer with the next event's separator appended.
func (e *traceEncoder) open() []byte {
	if e.events > 0 {
		return append(e.buf, ",\n"...)
	}
	return e.buf
}

// close keeps the event encoded into b, unless encoding it failed,
// and writes the buffer out once it passes traceFlushSize.
func (e *traceEncoder) close(b []byte, err error) error {
	if err != nil {
		return err
	}
	e.buf = b
	e.events++
	if len(e.buf) >= traceFlushSize {
		return e.flush()
	}
	return nil
}

// flush writes the buffer to w and empties it.
func (e *traceEncoder) flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// appendEvent appends ev to b as encoding/json marshals it.
func appendEvent(b []byte, ev *chromeEvent) ([]byte, error) {
	b, err := appendFloat(appendLabels(b, ev.Name, ev.Ph, ev.Pid, ev.Tid), ev.Ts)
	if err != nil {
		return b, err
	}
	if ev.Dur != nil {
		if b, err = appendFloat(append(b, `,"dur":`...), *ev.Dur); err != nil {
			return b, err
		}
	}
	if ev.S != "" {
		b = appendString(append(b, `,"s":`...), ev.S)
	}
	if len(ev.Args) > 0 {
		if b, err = appendArgs(append(b, `,"args":`...), ev.Args); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendLabels opens an event and appends its fields up to ts's value.
func appendLabels(b []byte, name, ph string, pid, tid int) []byte {
	b = appendString(append(b, `{"name":`...), name)
	b = appendString(append(b, `,"ph":`...), ph)
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	return append(b, `,"ts":`...)
}

// appendArgs appends args as a JSON object with its keys sorted.
func appendArgs(b []byte, args map[string]any) ([]byte, error) {
	var small [8]string
	keys := small[:0]
	for k := range args {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var err error
	for i, k := range keys {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(appendString(b, k), ':')
		if b, err = appendValue(b, args[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendValue appends one arg value. The types the simulator records
// are encoded here; any other value — nested maps and slices from a
// decoded span log, say — is marshalled by encoding/json.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return appendString(b, v), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case float64:
		return appendFloat(b, v)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, raw...), nil
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes (", \, <, >, &) — every name the
// simulator records — is copied as is; any other string is escaped by
// encoding/json itself, which also replaces invalid UTF-8 and escapes
// U+2028 and U+2029.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal form, in exponent form below 1e-6 and from 1e21
// with a leading zero dropped from a negative exponent (1e-07 becomes
// 1e-7). NaN and ±Inf have no JSON form and are an error. The plain
// decimals between, nearly every value a trace holds, are written by
// appendShortest.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return appendShortest(b, f), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("obs: trace value %s has no JSON form", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('e')
	if f == 0 {
		format = 'f'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// render walks the recording in deterministic order: metadata, then
// per-disk span timelines in disk-ID order, then run-level events in
// append order. A nil recorder emits nothing.
func (r *TraceRecorder) render(e *traceEncoder) error {
	if r == nil {
		return nil
	}
	meta := func(pid, tid int, kind, name string) error {
		return e.event(&chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
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

	heads := newSegmentHeads(r)
	for tid, tl := range r.tracks {
		if len(tl) == 0 {
			continue
		}
		// Not fmt: its printer pool drops entries at random under the
		// race detector, so a render's allocation count would vary.
		if err := meta(diskPid, tid, "thread_name", "disk "+strconv.Itoa(tid)); err != nil {
			return err
		}
		heads.encode(tid)
		// Each point's span ends where the next point begins; the last
		// one ends at the horizon, or at its own start past it.
		prev := tl[0][0]
		for c, chunk := range tl {
			if c == 0 {
				chunk = chunk[1:]
			}
			for _, p := range chunk {
				if err := e.segment(heads.of(prev.state), usec(prev.at), usec(p.at-prev.at)); err != nil {
					return err
				}
				prev = p
			}
		}
		end := r.horizon
		if end < prev.at {
			end = prev.at
		}
		if err := e.segment(heads.of(prev.state), usec(prev.at), usec(end-prev.at)); err != nil {
			return err
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
		if err := e.event(&ce); err != nil {
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

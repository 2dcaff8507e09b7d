package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"
)

// Distributed-sweep spans as schema-versioned JSONL, the fleet-scale
// sibling of the telemetry stream: line 1 is a SpanHeader binding the
// log to one track (a worker, the coordinator, or a shard runner) of
// one (sweep, seed), and every further line is one Span. Span IDs are
// a pure function of (sweep hash, point, attempt, phase), so the same
// logical work gets the same ID on every worker that touches it —
// which is what lets MergeSpans fold many per-process logs into one
// coherent trace. Timestamps are wall-clock (spans measure real fleet
// latency, not simulated time), but every consumer orders spans by the
// replay-stable key (Point, Attempt, phase rank, ID), so two runs of
// the same sweep produce merge output that differs only in the ts/dur
// numbers, never in structure.
//
// A SpanRecorder writes each record with WriteLine — one Write call,
// no buffering layer — so a SIGKILLed process tears at most the final
// line, and ReadSpans applies the shared torn-tail rule (see
// SplitLines). Close ends every still-open span with SpanAborted — the
// SIGINT flush guarantee.

// SpanSchema identifies the span-log format in the header line.
const SpanSchema = "diskpack-spans"

// SpanVersion is the current span schema version. Bump on any
// incompatible record change.
const SpanVersion = 1

// Span status values.
const (
	// SpanOK marks normally completed work.
	SpanOK = "ok"
	// SpanError marks work that failed.
	SpanError = "error"
	// SpanAborted marks a span still open when its recorder closed
	// (interrupt or crash-adjacent shutdown).
	SpanAborted = "aborted"
	// SpanStolen marks a lease reclaimed from an expired worker.
	SpanStolen = "stolen"
	// SpanDuplicate marks work whose result lost a first-write race.
	SpanDuplicate = "duplicate"
)

// SpanHeader is the first JSONL line: schema identity plus the track
// (one process's log) and the sweep the spans belong to.
type SpanHeader struct {
	// Schema is always SpanSchema.
	Schema string
	// Version is the schema version (SpanVersion).
	Version int
	// Track names the log's owner ("worker-3", "coordinator", ...);
	// the merged trace renders one thread per track.
	Track string
	// Role classifies the owner: "worker", "coordinator", or "shard".
	Role string
	// SweepHash is the sweep fingerprint (farm.Fingerprint) every span
	// ID in this log is derived from. Logs with different hashes
	// belong to different sweeps and refuse to merge.
	SweepHash string
	// Seed is the sweep seed.
	Seed int64
	// Points is the sweep's point count.
	Points int
	// StartUnixNano is the log's time origin: every span's Start/End
	// are wall-clock seconds since this instant.
	StartUnixNano int64
}

func (h *SpanHeader) identity() (string, int) { return h.Schema, h.Version }

// Span is one JSONL record: a phase of work on one sweep point (or a
// run-level phase, Point -1) on one track.
type Span struct {
	// ID is SpanID(sweep hash, Point, Attempt, Phase) — deterministic,
	// so re-running the same sweep yields the same IDs.
	ID string
	// Parent is the enclosing span's ID ("" for a root span).
	Parent string `json:",omitempty"`
	// Point is the sweep point index (-1 for run-level spans such as
	// compile or lease waits).
	Point int
	// Attempt is the global lease attempt number for point spans
	// (assigned by the coordinator, starting at 1), or a track-local
	// sequence number for run-level spans.
	Attempt int
	// Phase names the work: "compile", "lease", "grant", "point",
	// "run", "submit", "retry", "stolen", "resume".
	Phase string
	// Status is one of the Span* status constants.
	Status string
	// Start and End are wall-clock seconds since the header's
	// StartUnixNano. Start == End renders as an instant event.
	Start float64
	End   float64
	// Args carries optional details (worker, label, error, counts).
	// Map keys render sorted, so serialization is deterministic.
	Args map[string]any `json:",omitempty"`
}

// SpanID derives the deterministic span ID for one (sweep, point,
// attempt, phase) tuple: a 64-bit FNV-1a hash rendered as 16 hex
// digits.
func SpanID(sweepHash string, point, attempt int, phase string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%s", sweepHash, point, attempt, phase)
	return fmt.Sprintf("%016x", h.Sum64())
}

// phaseRank orders phases within one (point, attempt) for the
// replay-stable sort: setup phases first, then the grant/point
// lifecycle in causal order.
func phaseRank(phase string) int {
	switch phase {
	case "compile":
		return 0
	case "resume":
		return 1
	case "lease":
		return 2
	case "grant":
		return 3
	case "point":
		return 4
	case "run":
		return 5
	case "submit":
		return 6
	case "retry":
		return 7
	case "stolen":
		return 8
	}
	return 9
}

// SpanRecorder streams a span log to one writer. All methods are safe
// on a nil receiver (the disabled path) and safe for concurrent use
// (worker slots record in parallel). Each record is emitted with a
// single unbuffered Write, so an abrupt kill tears at most the last
// line. Close is idempotent and ends every still-open span with
// SpanAborted before closing the underlying writer.
type SpanRecorder struct {
	mu      sync.Mutex
	w       io.Writer
	c       io.Closer
	now     func() time.Time
	hash    string
	t0      time.Time
	started bool
	closed  bool
	open    map[*SpanHandle]struct{}
	err     error
}

// SpanHandle is one in-flight span started by Begin/BeginChild; End
// writes the record. Safe on a nil receiver.
type SpanHandle struct {
	r    *SpanRecorder
	span Span
}

// NewSpanRecorder wraps w; if w is also an io.Closer, Close closes it
// after ending open spans.
func NewSpanRecorder(w io.Writer) *SpanRecorder {
	r := &SpanRecorder{w: w, now: time.Now, open: map[*SpanHandle]struct{}{}}
	if c, ok := w.(io.Closer); ok {
		r.c = c
	}
	return r
}

// SetNow replaces the recorder's clock (test seam; aligns with the
// coordinator's injectable clock). No-op on nil.
func (r *SpanRecorder) SetNow(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Start writes the header line, filling Schema and Version; if
// StartUnixNano is zero it is stamped from the recorder's clock. The
// header's StartUnixNano becomes the time origin for every subsequent
// span. Recording before Start is a no-op. No-op on nil.
func (r *SpanRecorder) Start(h SpanHeader) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return fmt.Errorf("obs: span recorder already %s", map[bool]string{true: "closed", false: "started"}[r.closed])
	}
	h.Schema = SpanSchema
	h.Version = SpanVersion
	if h.StartUnixNano == 0 {
		h.StartUnixNano = r.now().UnixNano()
	}
	r.hash = h.SweepHash
	r.t0 = time.Unix(0, h.StartUnixNano)
	r.started = true
	return WriteLine(r.w, &h)
}

// Since converts a wall-clock instant to seconds since the header's
// time origin (zero on nil or before Start).
func (r *SpanRecorder) Since(t time.Time) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		return 0
	}
	return t.Sub(r.t0).Seconds()
}

// Begin opens a root span for (point, attempt, phase), stamped at the
// current clock. Returns nil (a valid no-op handle) on a nil or
// unstarted recorder.
func (r *SpanRecorder) Begin(point, attempt int, phase string, args map[string]any) *SpanHandle {
	return r.begin("", point, attempt, phase, args)
}

// BeginChild opens a span nested under parent, inheriting its point
// and attempt. Returns nil on a nil recorder or nil parent.
func (r *SpanRecorder) BeginChild(parent *SpanHandle, phase string, args map[string]any) *SpanHandle {
	if parent == nil {
		return nil
	}
	return r.begin(parent.span.ID, parent.span.Point, parent.span.Attempt, phase, args)
}

func (r *SpanRecorder) begin(parentID string, point, attempt int, phase string, args map[string]any) *SpanHandle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.closed {
		return nil
	}
	h := &SpanHandle{r: r, span: Span{
		ID:      SpanID(r.hash, point, attempt, phase),
		Parent:  parentID,
		Point:   point,
		Attempt: attempt,
		Phase:   phase,
		Start:   r.now().Sub(r.t0).Seconds(),
		Args:    args,
	}}
	r.open[h] = struct{}{}
	return h
}

// End closes the span with the given status, merging extra args over
// the Begin args, and writes its record. No-op on nil or already-ended
// handles.
func (h *SpanHandle) End(status string, args map[string]any) {
	if h == nil || h.r == nil {
		return
	}
	r := h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.open[h]; !ok {
		return
	}
	delete(r.open, h)
	sp := h.span
	sp.Status = status
	sp.End = r.now().Sub(r.t0).Seconds()
	if len(args) > 0 {
		merged := make(map[string]any, len(sp.Args)+len(args))
		for k, v := range sp.Args {
			merged[k] = v
		}
		for k, v := range args {
			merged[k] = v
		}
		sp.Args = merged
	}
	if err := WriteLine(r.w, &sp); err != nil && r.err == nil {
		r.err = err
	}
}

// Record writes a fully built span record as-is (Start/End already
// relative to the header origin); the ID is derived if empty. Used by
// producers that track their own timing, like the coordinator's
// grant spans. No-op on nil or unstarted recorders.
func (r *SpanRecorder) Record(sp Span) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.closed {
		return nil
	}
	if sp.ID == "" {
		sp.ID = SpanID(r.hash, sp.Point, sp.Attempt, sp.Phase)
	}
	err := WriteLine(r.w, &sp)
	if err != nil && r.err == nil {
		r.err = err
	}
	return err
}

// Event records an instant (zero-duration) span at the current clock.
// No-op on nil or unstarted recorders.
func (r *SpanRecorder) Event(point, attempt int, phase, status string, args map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.closed {
		return
	}
	at := r.now().Sub(r.t0).Seconds()
	sp := Span{
		ID:      SpanID(r.hash, point, attempt, phase),
		Point:   point,
		Attempt: attempt,
		Phase:   phase,
		Status:  status,
		Start:   at,
		End:     at,
		Args:    args,
	}
	if err := WriteLine(r.w, &sp); err != nil && r.err == nil {
		r.err = err
	}
}

// Hash returns the sweep hash from the header ("" before Start or on
// nil).
func (r *SpanRecorder) Hash() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hash
}

// Close ends every still-open span with SpanAborted, then closes the
// underlying writer if it is closable. It returns the first write
// error seen over the recorder's lifetime. Safe on nil; calling twice
// returns nil the second time.
func (r *SpanRecorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	// Abort open spans in deterministic (Point, Attempt, rank) order so
	// two interrupted runs flush comparably ordered tails.
	hs := make([]*SpanHandle, 0, len(r.open))
	for h := range r.open {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return spanLess(&hs[i].span, &hs[j].span) })
	end := 0.0
	if r.started {
		end = r.now().Sub(r.t0).Seconds()
	}
	for _, h := range hs {
		delete(r.open, h)
		sp := h.span
		sp.Status = SpanAborted
		sp.End = end
		if err := WriteLine(r.w, &sp); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.closed = true
	err := r.err
	if r.c != nil {
		if cerr := r.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// spanLess is the replay-stable span order: (Point, Attempt, phase
// rank, Phase, ID).
func spanLess(a, b *Span) bool {
	if a.Point != b.Point {
		return a.Point < b.Point
	}
	if a.Attempt != b.Attempt {
		return a.Attempt < b.Attempt
	}
	ra, rb := phaseRank(a.Phase), phaseRank(b.Phase)
	if ra != rb {
		return ra < rb
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	return a.ID < b.ID
}

// SpanLog is one parsed span log: a header and its spans.
type SpanLog struct {
	Header SpanHeader
	Spans  []Span
}

// spanFormat is the span log as readLog checks it.
var spanFormat = logFormat{kind: "span", record: "record", schema: SpanSchema, version: SpanVersion}

// ReadSpans parses a span JSONL stream, enforcing the schema name and
// version in the header line. A final line without a terminating
// newline is dropped — the torn tail a SIGKILLed writer leaves — but
// any complete line that does not decode is an error.
func ReadSpans(r io.Reader) (*SpanLog, error) {
	var log SpanLog
	spans, err := readLog[Span](r, spanFormat, &log.Header)
	if err != nil {
		return nil, err
	}
	log.Spans = spans
	return &log, nil
}

// MergeSpans validates and orders a set of span logs from one sweep:
// all logs must share the header's (SweepHash, Seed), tracks are
// ordered by (Role, Track), and each log's spans are sorted by the
// replay-stable key (Point, Attempt, phase rank, ID). The result is
// structurally identical across re-runs of the same sweep — only
// timestamps differ.
func MergeSpans(logs []SpanLog) ([]SpanLog, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("obs: no span logs to merge")
	}
	merged := append([]SpanLog(nil), logs...)
	h0 := merged[0].Header
	for _, l := range merged[1:] {
		if l.Header.SweepHash != h0.SweepHash || l.Header.Seed != h0.Seed {
			return nil, fmt.Errorf("obs: span log %q is from sweep %s seed %d, want sweep %s seed %d",
				l.Header.Track, l.Header.SweepHash, l.Header.Seed, h0.SweepHash, h0.Seed)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i].Header, merged[j].Header
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Track < b.Track
	})
	for i := range merged {
		spans := append([]Span(nil), merged[i].Spans...)
		sort.Slice(spans, func(a, b int) bool { return spanLess(&spans[a], &spans[b]) })
		merged[i].Spans = spans
	}
	return merged, nil
}

// sweepPid is the process ID span tracks render under (distinct from
// the single-run trace's disk/run processes, so both traces can sit in
// one Perfetto session without colliding).
const sweepPid = 3

// WriteSpanTrace renders merged span logs as one Chrome-trace JSON
// object: one process ("sweep"), one thread per track, with every
// span's ts/dur in wall-clock microseconds relative to the earliest
// log origin. Feed the output straight to ui.perfetto.dev.
func WriteSpanTrace(w io.Writer, logs []SpanLog) error {
	merged, err := MergeSpans(logs)
	if err != nil {
		return err
	}
	t0 := merged[0].Header.StartUnixNano
	for _, l := range merged[1:] {
		if l.Header.StartUnixNano < t0 {
			t0 = l.Header.StartUnixNano
		}
	}
	return writeChromeTrace(w, func(e *traceEncoder) error {
		return renderSpans(merged, t0, e)
	})
}

// renderSpans emits merged span logs as Chrome-trace events: one
// process, one thread per track, then every span in merged order; t0
// is the merged origin in Unix nanoseconds.
func renderSpans(merged []SpanLog, t0 int64, e *traceEncoder) error {
	if err := e.event(&chromeEvent{Name: "process_name", Ph: "M", Pid: sweepPid,
		Args: map[string]any{"name": "sweep"}}); err != nil {
		return err
	}
	for tid, l := range merged {
		if err := e.event(&chromeEvent{Name: "thread_name", Ph: "M", Pid: sweepPid, Tid: tid,
			Args: map[string]any{"name": l.Header.Role + ":" + l.Header.Track}}); err != nil {
			return err
		}
	}
	for tid, l := range merged {
		// Offset of this log's origin from the merged origin, in µs.
		off := float64(l.Header.StartUnixNano-t0) / 1e3
		for i := range l.Spans {
			sp := &l.Spans[i]
			args := map[string]any{
				"id":      sp.ID,
				"point":   sp.Point,
				"attempt": sp.Attempt,
				"status":  sp.Status,
			}
			if sp.Parent != "" {
				args["parent"] = sp.Parent
			}
			for k, v := range sp.Args {
				args[k] = v
			}
			ce := chromeEvent{
				Name: sp.Phase, Pid: sweepPid, Tid: tid,
				Ts: off + sp.Start*1e6, Args: args,
			}
			if sp.End > sp.Start {
				ce.Ph = "X"
				dur := (sp.End - sp.Start) * 1e6
				ce.Dur = &dur
			} else {
				ce.Ph = "i"
				ce.S = "t"
			}
			if err := e.event(&ce); err != nil {
				return err
			}
		}
	}
	return nil
}

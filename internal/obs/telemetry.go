package obs

import (
	"fmt"
	"io"
	"sync"
)

// Per-window telemetry as schema-versioned JSONL: line 1 is a
// TelemetryHeader identifying the schema, the run, and the histogram
// bucket layouts; every further line is one Window, in window order.
// Window is the simulator's own per-window record: storage, farm and
// the root package alias it, so the stream writes the live snapshot
// with no conversion, and a new column is declared exactly once.
// Consumers parse with ReadTelemetry, which enforces the schema and
// version so a format change can never be misread silently.

// TelemetrySchema identifies the stream format in the header line.
const TelemetrySchema = "diskpack-telemetry"

// TelemetryVersion is the current schema version. Bump on any
// incompatible record change.
const TelemetryVersion = 1

// TelemetryHeader is the first JSONL line: run identity plus the
// bucket bounds the per-window histograms use.
type TelemetryHeader struct {
	// Schema is always TelemetrySchema.
	Schema string
	// Version is the schema version (TelemetryVersion).
	Version int
	// Spec names the scenario or spec the run executed.
	Spec string
	// Seed is the run seed.
	Seed int64
	// Epoch is the window length in simulated seconds.
	Epoch float64
	// IdleGapBuckets and RespBuckets are the histogram bucket upper
	// bounds (each histogram carries one extra overflow bucket).
	IdleGapBuckets []float64
	RespBuckets    []float64
}

func (h *TelemetryHeader) identity() (string, int) { return h.Schema, h.Version }

// GroupWindow is one disk group's share of a telemetry window. Field
// order is the JSONL column order.
type GroupWindow struct {
	// Group is the group index (-1 for the farm-wide total).
	Group int
	// Disks is the number of drives in the group.
	Disks int
	// Arrivals counts requests dispatched toward the group's disks
	// during the window (cache hits included — the request targeted the
	// group even if the cache absorbed it).
	Arrivals int64
	// Completed counts requests finished during the window (cache hits
	// included, at zero response time).
	Completed int64
	// Response-time distribution over the window's completions, seconds.
	RespMean, RespP50, RespP95, RespP99, RespMax float64
	// Energy is the group's consumption during the window, joules.
	Energy float64
	// Spin transitions during the window.
	SpinUps, SpinDowns int
	// StandbyTime is disk-seconds spent in standby during the window.
	StandbyTime float64
	// Threshold is the group's spin-down threshold at the window
	// boundary, filled by the farm layer for tunable groups (zero
	// otherwise — storage does not know the policies' internals).
	Threshold float64
	// IdleGaps is the histogram of idle-gap lengths closed during the
	// window (a gap is closed by the arrival ending it); bucket bounds
	// are the header's IdleGapBuckets (storage.IdleGapBuckets), plus one
	// overflow bucket.
	IdleGaps []int64
	// RespHist is the histogram of the window's completion response
	// times; bucket bounds are the header's RespBuckets
	// (storage.RespBuckets), plus one overflow bucket. Quantiles
	// interpolate; the histogram counts exactly — a tail-budget
	// controller reads "completions over budget" off it.
	RespHist []int64
}

// Window is one epoch's telemetry snapshot and one telemetry record.
// Snapshots a run hands its stream observer are double-buffered: such
// a Window is valid until the next-but-one window boundary, after
// which its storage is reused. An observer that only reads within its
// callback needs nothing special; one that retains windows across
// epochs must Clone them. Field order is the JSONL column order.
type Window struct {
	// Index numbers windows from zero.
	Index int
	// Start and End bound the window in simulated seconds.
	Start, End float64
	// Final marks the window that reaches the horizon.
	Final bool
	// Total is the farm-wide aggregate (Group = -1).
	Total GroupWindow
	// Groups holds one entry per disk group.
	Groups []GroupWindow
	// Cache activity during the window (zero without a cache).
	CacheHits, CacheMisses int64
	// Migration accounting for reallocations actuated since the
	// previous window.
	MigrationEnergy float64
	MigratedFiles   int64
	MigratedBytes   int64
	// Reliability accounting since the previous window (zero without
	// storage's Config.Reliability): disk failures detected, failures
	// that struck an already-degraded group, rebuilds completed, and
	// degraded time booked by those completions.
	Failures       int
	DataLossEvents int
	Rebuilds       int
	RebuildTime    float64
}

// Clone returns a deep copy of the window that shares no storage with
// the double-buffered snapshot, safe to retain indefinitely.
func (w *Window) Clone() *Window {
	c := *w
	c.Groups = make([]GroupWindow, len(w.Groups))
	copy(c.Groups, w.Groups)
	for g := range c.Groups {
		c.Groups[g].IdleGaps = append([]int64(nil), w.Groups[g].IdleGaps...)
		c.Groups[g].RespHist = append([]int64(nil), w.Groups[g].RespHist...)
	}
	c.Total.IdleGaps = append([]int64(nil), w.Total.IdleGaps...)
	c.Total.RespHist = append([]int64(nil), w.Total.RespHist...)
	return &c
}

// TelemetryWriter streams header and window records as JSONL, one
// unbuffered Write per record (see WriteLine), so a killed run keeps
// every window that closed. It is safe for concurrent use and safe on
// a nil receiver (records nothing), and Close is idempotent — the CLI
// closes it both on the normal path and from the SIGINT path.
type TelemetryWriter struct {
	mu     sync.Mutex
	w      io.Writer
	closed bool
}

// NewTelemetryWriter wraps w; if w is also an io.Closer, Close closes
// it.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter {
	return &TelemetryWriter{w: w}
}

// WriteHeader writes the schema header line, filling Schema and
// Version. No-op on nil.
func (t *TelemetryWriter) WriteHeader(h TelemetryHeader) error {
	if t == nil {
		return nil
	}
	h.Schema = TelemetrySchema
	h.Version = TelemetryVersion
	return t.writeLine(&h)
}

// WriteWindow writes one window record line. No-op on nil (by-pointer
// so the disabled path does not copy — or heap-escape — the record).
func (t *TelemetryWriter) WriteWindow(w *Window) error {
	if t == nil || w == nil {
		return nil
	}
	return t.writeLine(w)
}

func (t *TelemetryWriter) writeLine(v any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("obs: telemetry writer closed")
	}
	return WriteLine(t.w, v)
}

// Close closes the underlying writer if it is closable. Safe on nil;
// calling twice returns nil the second time.
func (t *TelemetryWriter) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if c, ok := t.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// telemetryFormat is the telemetry stream as readLog checks it.
var telemetryFormat = logFormat{kind: "telemetry", record: "window", schema: TelemetrySchema, version: TelemetryVersion}

// ReadTelemetry parses a telemetry JSONL stream, enforcing the schema
// name and version in the header line. An unterminated final line is
// the torn record of a killed writer and is dropped.
func ReadTelemetry(r io.Reader) (*TelemetryHeader, []Window, error) {
	var h TelemetryHeader
	ws, err := readLog[Window](r, telemetryFormat, &h)
	if err != nil {
		return nil, nil, err
	}
	return &h, ws, nil
}

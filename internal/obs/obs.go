// Package obs is the simulator's observability substrate: a
// lightweight metrics registry (counters, gauges, exact histograms)
// with Prometheus text-format exposition, a state-timeline trace
// recorder that renders Chrome-trace/Perfetto JSON, a
// schema-versioned JSONL telemetry stream, and the one JSONL framing
// that stream, the span logs and farm's point journal share.
// Everything here is observation-only plumbing — producers (storage,
// disk, control, coord, the CLIs) publish into it, and nothing in this
// package feeds back into a simulation.
//
// Two properties shape the API. First, the disabled path is free:
// every mutating method is safe on a nil receiver and the nil path
// allocates nothing (asserted by tests and BenchmarkObsOverhead), so
// hot simulation loops carry instrumentation at the cost of one
// pointer test. Second, output is deterministic: given the same
// sequence of recorded facts, the trace and telemetry bytes are
// identical — no timestamps, no map iteration order, no
// pointer-dependent formatting — which lets the byte-identity suite
// extend to observability output itself.
//
// The package deliberately imports no other diskpack package, so any
// layer (sim, disk, storage, farm, control, coord) may publish into
// it without import cycles.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// safe on a nil receiver (the disabled fast path) and safe for
// concurrent use.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) expose(w *bufio.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a float64 metric that can go up and down. All methods are
// safe on a nil receiver and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge's value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) expose(w *bufio.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// Histogram is an exact fixed-bucket histogram: observations land in
// the first bucket whose upper bound is >= the value, with one
// overflow bucket past the last bound. Unlike a sampling summary,
// counts are exact — "completions over budget" reads straight off a
// bucket. All methods are safe on a nil receiver and safe for
// concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, non-cumulative
	sumBits atomic.Uint64
	name    string
	help    string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.addSum(v)
}

// AddBuckets bulk-merges non-cumulative per-bucket counts (same
// bucket layout: len(bounds)+1 entries, overflow last) plus the sum
// of the underlying observations. Producers that already histogram
// per window (storage's RespHist) publish through this instead of
// replaying every observation.
func (h *Histogram) AddBuckets(counts []int64, sum float64) {
	if h == nil {
		return
	}
	n := len(counts)
	if n > len(h.counts) {
		n = len(h.counts)
	}
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			h.counts[i].Add(counts[i])
		}
	}
	h.addSum(sum)
}

func (h *Histogram) bucket(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) expose(w *bufio.Writer) {
	header(w, h.name, h.help, "histogram")
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// CounterVec is a family of Counters keyed by one label value (for
// example, per-worker lease counts). All methods are safe on a nil
// receiver and safe for concurrent use.
type CounterVec struct {
	name  string
	help  string
	label string

	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating
// it on first use. Returns nil (a valid no-op Counter) on a nil vec.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Total returns the sum across all children (zero on nil).
func (v *CounterVec) Total() int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, c := range v.children {
		n += c.v.Load()
	}
	return n
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) expose(w *bufio.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// %q escapes backslash, quote, and newline exactly as the
		// exposition format requires.
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, k, v.children[k].v.Load())
	}
	v.mu.Unlock()
}

// GaugeVec is a family of Gauges keyed by one label value (for
// example, per-slot busy seconds). All methods are safe on a nil
// receiver and safe for concurrent use.
type GaugeVec struct {
	name  string
	help  string
	label string

	mu       sync.Mutex
	children map[string]*Gauge
}

// With returns the child gauge for the given label value, creating it
// on first use. Returns nil (a valid no-op Gauge) on a nil vec.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g := v.children[value]
	if g == nil {
		g = &Gauge{}
		v.children[value] = g
	}
	return g
}

func (v *GaugeVec) metricName() string { return v.name }

func (v *GaugeVec) expose(w *bufio.Writer) {
	header(w, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %s\n", v.name, v.label, k, formatFloat(v.children[k].Value()))
	}
	v.mu.Unlock()
}

// metric is the exposition interface every registered metric type
// implements.
type metric interface {
	metricName() string
	expose(w *bufio.Writer)
}

// Registry holds a set of named metrics and renders them in
// Prometheus text format. The zero value is NOT usable — construct
// with NewRegistry. A nil *Registry is the disabled sink: its
// constructors return nil metrics whose methods are all no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewCounter registers and returns a counter. On a nil registry it
// returns a nil Counter (all methods no-ops).
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewGauge registers and returns a gauge. On a nil registry it
// returns a nil Gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewHistogram registers and returns a histogram with the given
// non-cumulative bucket upper bounds (an overflow bucket is added
// past the last bound). On a nil registry it returns a nil Histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// NewCounterVec registers and returns a counter family keyed by one
// label. On a nil registry it returns a nil CounterVec.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{name: name, help: help, label: label, children: map[string]*Counter{}}
	r.register(v)
	return v
}

// NewGaugeVec registers and returns a gauge family keyed by one
// label. On a nil registry it returns a nil GaugeVec.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	v := &GaugeVec{name: name, help: help, label: label, children: map[string]*Gauge{}}
	r.register(v)
	return v
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, sorted by metric name. Safe on a nil registry
// (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		m.expose(bw)
	}
	return bw.Flush()
}

// PrometheusContentType is the Content-Type for text exposition.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry in Prometheus
// text format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		r.WritePrometheus(w)
	})
}

// header writes the # HELP / # TYPE preamble for one metric.
func header(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float the shortest way that round-trips,
// matching Prometheus conventions.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

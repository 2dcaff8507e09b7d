package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_ops_total", "operations")
	g := reg.NewGauge("test_temp", "temperature")
	h := reg.NewHistogram("test_resp_seconds", "response times", []float64{0.1, 1})
	v := reg.NewCounterVec("test_leases_total", "leases", "worker")

	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	g.Set(1.5)
	g.Add(-0.25)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(30)
	v.With("b-worker").Inc()
	v.With("a worker \"x\"").Add(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP test_leases_total leases`,
		`# TYPE test_leases_total counter`,
		`test_leases_total{worker="a worker \"x\""} 2`,
		`test_leases_total{worker="b-worker"} 1`,
		`# HELP test_ops_total operations`,
		`# TYPE test_ops_total counter`,
		`test_ops_total 5`,
		`# HELP test_resp_seconds response times`,
		`# TYPE test_resp_seconds histogram`,
		`test_resp_seconds_bucket{le="0.1"} 1`,
		`test_resp_seconds_bucket{le="1"} 3`,
		`test_resp_seconds_bucket{le="+Inf"} 4`,
		`test_resp_seconds_sum 31.05`,
		`test_resp_seconds_count 4`,
		`# HELP test_temp temperature`,
		`# TYPE test_temp gauge`,
		`test_temp 1.25`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got\n%s--- want\n%s", got, want)
	}

	if got := h.Count(); got != 4 {
		t.Errorf("histogram Count = %d, want 4", got)
	}
	if got := v.Total(); got != 3 {
		t.Errorf("vec Total = %d, want 3", got)
	}

	// The HTTP handler serves the same bytes with the exposition
	// content type.
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("content type %q", ct)
	}
	if rr.Body.String() != want {
		t.Error("handler body differs from WritePrometheus")
	}
}

func TestGaugeVecExposition(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewGaugeVec("test_slot_busy_seconds", "busy time", "slot")
	v.With("1").Set(2.5)
	v.With("0").Add(1.25)
	v.With("0").Add(0.25)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP test_slot_busy_seconds busy time`,
		`# TYPE test_slot_busy_seconds gauge`,
		`test_slot_busy_seconds{slot="0"} 1.5`,
		`test_slot_busy_seconds{slot="1"} 2.5`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got\n%s--- want\n%s", got, want)
	}

	var nilVec *GaugeVec
	nilVec.With("x").Set(1) // no-op, no panic
}

func TestHistogramAddBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h", "", []float64{1, 2})
	h.AddBuckets([]int64{3, 0, 2}, 10.5)
	h.AddBuckets([]int64{1, 1, 1, 99}, 2) // extra entries beyond layout are dropped
	if got := h.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `h_bucket{le="+Inf"} 8`) || !strings.Contains(buf.String(), "h_sum 12.5") {
		t.Errorf("bulk-merged exposition wrong:\n%s", buf.String())
	}
}

// TestNilSinkZeroAlloc pins the disabled fast path: every publishing
// method on nil metrics, a nil recorder, a nil telemetry writer, and a
// nil observer must allocate nothing (BenchmarkObsOverhead measures
// the same property under load).
func TestNilSinkZeroAlloc(t *testing.T) {
	var reg *Registry
	c := reg.NewCounter("c", "")
	g := reg.NewGauge("g", "")
	h := reg.NewHistogram("h", "", []float64{1})
	v := reg.NewCounterVec("v", "", "l")
	var rec *TraceRecorder
	var tw *TelemetryWriter
	var o *RunObserver
	var win Window
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(0.5)
		h.AddBuckets(nil, 0)
		v.With("x").Inc()
		rec.StateChange(0, 1, 2)
		rec.Emit(TraceEvent{})
		rec.SetHorizon(10)
		tw.WriteWindow(&win)
		_ = o.Interrupted()
	})
	if allocs != 0 {
		t.Fatalf("nil sink allocated %.1f times per op, want 0", allocs)
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteHeader(TelemetryHeader{}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

func sampleTrace() *TraceRecorder {
	rec := NewTraceRecorder()
	rec.InitTracks(2, []string{"idle", "standby", "spinup"})
	rec.StateChange(0, 0, 0)
	rec.StateChange(0, 100, 1)
	rec.StateChange(0, 250, 2)
	rec.StateChange(1, 0, 0)
	rec.Emit(TraceEvent{Phase: 'i', Track: "control", Name: "set-threshold", At: 120,
		Args: map[string]any{"applied": true, "window": 3}})
	rec.Emit(TraceEvent{Phase: 'X', Track: "reliability", Name: "rebuild group 0", At: 150, Dur: 60})
	rec.Emit(TraceEvent{Phase: 'C', Track: "windows", Name: "load", At: 300,
		Args: map[string]any{"arrivals": 12, "completed": 11}})
	rec.SetHorizon(400)
	return rec
}

// TestChromeTraceOutput checks the rendered trace is valid Chrome-trace
// JSON with the expected structure, and that rendering is
// deterministic: two identical recordings produce identical bytes.
func TestChromeTraceOutput(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTrace().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTrace().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings rendered different bytes")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	var spans, metas int
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			if ev.Dur == nil {
				t.Errorf("span %q has no dur", ev.Name)
			}
		case "i":
			if ev.S != "g" {
				t.Errorf("instant %q scope %q, want g", ev.Name, ev.S)
			}
		}
		if ev.Ph == "X" && ev.Pid == 1 {
			spans++
		}
	}
	// Disk 0 has 3 segments, disk 1 has 1; plus the rebuild span on
	// the run process.
	if spans != 4 {
		t.Errorf("disk spans = %d, want 4", spans)
	}
	if phases["i"] != 1 || phases["C"] != 1 || phases["X"] != 5 {
		t.Errorf("phase counts %v", phases)
	}
	// 2 process_name + 3 run thread_name + 2 disk thread_name.
	if metas != 7 {
		t.Errorf("metadata events = %d, want 7", metas)
	}
	// The final segment of disk 0 must extend to the horizon.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 1 && ev.Tid == 0 && ev.Name == "spinup" {
			found = true
			if ev.Dur == nil || *ev.Dur != (400-250)*1e6 {
				t.Errorf("final segment dur = %v, want %v", ev.Dur, (400-250)*1e6)
			}
		}
	}
	if !found {
		t.Error("disk 0 final spinup segment missing")
	}
}

func sampleTelemetry() (TelemetryHeader, []Window) {
	h := TelemetryHeader{
		Spec:           "golden",
		Seed:           7,
		Epoch:          1800,
		IdleGapBuckets: []float64{1, 10, 100},
		RespBuckets:    []float64{0.5, 5},
	}
	ws := []Window{
		{
			Index: 0, Start: 0, End: 1800,
			Total: GroupWindow{
				Group: -1, Disks: 4, Arrivals: 20, Completed: 18,
				RespMean: 1.25, RespP50: 0.8, RespP95: 4.5, RespP99: 6, RespMax: 7.5,
				Energy: 5400, SpinUps: 3, SpinDowns: 2, StandbyTime: 1200,
				IdleGaps: []int64{5, 2, 1, 0}, RespHist: []int64{10, 7, 1},
			},
			Groups: []GroupWindow{{Group: 0, Disks: 4, Arrivals: 20, Completed: 18, Threshold: 30}},
		},
		{
			Index: 1, Start: 1800, End: 3600, Final: true,
			Total:     GroupWindow{Group: -1, Disks: 4, Arrivals: 5, Completed: 7},
			CacheHits: 3, CacheMisses: 2,
			MigratedFiles: 4, MigratedBytes: 1 << 20, MigrationEnergy: 88.5,
			Failures: 1, DataLossEvents: 0, Rebuilds: 1, RebuildTime: 420,
		},
	}
	return h, ws
}

// TestTelemetryGoldenRoundTrip writes the telemetry stream, compares
// it byte-for-byte against the checked-in golden file, and reads the
// golden back through ReadTelemetry — so the schema cannot drift
// silently in either direction.
func TestTelemetryGoldenRoundTrip(t *testing.T) {
	h, ws := sampleTelemetry()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	if err := tw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		w := w
		if err := tw.WriteWindow(&w); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := tw.WriteWindow(&Window{}); err == nil {
		t.Error("write after Close succeeded")
	}

	golden := filepath.Join("testdata", "telemetry.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("telemetry stream drifted from golden (bump TelemetryVersion on schema changes, or -update):\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}

	gotH, gotWs, err := ReadTelemetry(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Schema != TelemetrySchema || gotH.Version != TelemetryVersion {
		t.Errorf("header schema %q v%d, want %q v%d", gotH.Schema, gotH.Version, TelemetrySchema, TelemetryVersion)
	}
	if gotH.Spec != "golden" || gotH.Seed != 7 || gotH.Epoch != 1800 {
		t.Errorf("header identity %+v", gotH)
	}
	if len(gotWs) != 2 {
		t.Fatalf("read %d windows, want 2", len(gotWs))
	}
	if gotWs[0].Total.RespP95 != 4.5 || gotWs[1].Rebuilds != 1 || !gotWs[1].Final {
		t.Errorf("window payloads did not round-trip: %+v", gotWs)
	}
}

func TestReadTelemetryRejectsDrift(t *testing.T) {
	if _, _, err := ReadTelemetry(strings.NewReader(`{"Schema":"something-else","Version":1}` + "\n")); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema accepted: %v", err)
	}
	if _, _, err := ReadTelemetry(strings.NewReader(`{"Schema":"diskpack-telemetry","Version":99}` + "\n")); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	if _, _, err := ReadTelemetry(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestServeMux(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("up_total", "ups").Inc()
	mux := NewServeMux(reg)
	for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/pprof/cmdline"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Errorf("GET %s = %d", path, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "up_total 1") {
		t.Errorf("metrics body:\n%s", rr.Body.String())
	}
}

package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes a worker
// recorder makes from parallel slots.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) reader() *bytes.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(b.buf.Bytes())
}

func readLog(t *testing.T, b *syncBuffer) *obs.SpanLog {
	t.Helper()
	log, err := obs.ReadSpans(b.reader())
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestSpanRecordingObservationOnly is the tentpole guarantee end to
// end: a coordinator and two fully instrumented workers drain the
// grid; the report is byte-identical to the uninstrumented
// single-process RunSweep; every log parses; the grant/point span
// count equals points × attempts; and the merged Perfetto trace
// carries exactly those spans, one track per process.
func TestSpanRecordingObservationOnly(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	var coLog syncBuffer
	journalPath := filepath.Join(t.TempDir(), "coord.journal")
	co, err := New(sweep, 9, Config{
		JournalPath: journalPath,
		Spans:       obs.NewSpanRecorder(&coLog),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	logs := make([]*syncBuffer, 2)
	regs := make([]*obs.Registry, 2)
	recs := make([]*obs.SpanRecorder, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		logs[i] = &syncBuffer{}
		regs[i] = obs.NewRegistry()
		recs[i] = obs.NewSpanRecorder(logs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(ctx, srv.URL, WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Parallel: 2, Poll: 5 * time.Millisecond,
				Spans: recs[i], Metrics: regs[i],
			})
		}(i)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// (a) Byte identity with span recording on.
	if resultJSON(t, res) != want {
		t.Fatal("instrumented coordinator result differs from single-process RunSweep")
	}

	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.cfg.Spans.Close(); err != nil {
		t.Fatal(err)
	}

	// (b) Span accounting. A healthy run leases each point exactly
	// once, so attempts == points and the coordinator logs one ok
	// grant per point.
	n := sweep.NumPoints()
	coSpans := readLog(t, &coLog)
	if coSpans.Header.Role != "coordinator" || coSpans.Header.Points != n {
		t.Fatalf("coordinator header %+v", coSpans.Header)
	}
	grants := map[int]obs.Span{}
	for _, sp := range coSpans.Spans {
		if sp.Phase != "grant" {
			continue
		}
		if _, dup := grants[sp.Point]; dup {
			t.Errorf("point %d granted twice in a healthy run", sp.Point)
		}
		if sp.Status != obs.SpanOK || sp.Attempt != 1 {
			t.Errorf("grant %+v, want ok attempt 1", sp)
		}
		grants[sp.Point] = sp
	}
	if len(grants) != n {
		t.Fatalf("%d grant spans, want %d", len(grants), n)
	}

	// Worker point spans: exactly one per (point, attempt) across the
	// pool, each with ok run and submit children, IDs agreeing with
	// the coordinator's sweep hash.
	type key struct{ point, attempt int }
	points := map[key]obs.Span{}
	children := map[string][]obs.Span{}
	for i, log := range []*syncBuffer{logs[0], logs[1]} {
		wl := readLog(t, log)
		if wl.Header.SweepHash != coSpans.Header.SweepHash {
			t.Fatalf("worker %d sweep hash %q, coordinator %q", i, wl.Header.SweepHash, coSpans.Header.SweepHash)
		}
		for _, sp := range wl.Spans {
			switch sp.Phase {
			case "point":
				k := key{sp.Point, sp.Attempt}
				if _, dup := points[k]; dup {
					t.Errorf("point span %v duplicated", k)
				}
				points[k] = sp
			case "run", "submit":
				children[sp.Parent] = append(children[sp.Parent], sp)
			}
		}
	}
	if len(points) != n {
		t.Fatalf("%d point spans across the pool, want %d", len(points), n)
	}
	for k, sp := range points {
		if sp.ID != obs.SpanID(coSpans.Header.SweepHash, k.point, k.attempt, "point") {
			t.Errorf("point span %v has non-deterministic ID %q", k, sp.ID)
		}
		if len(children[sp.ID]) != 2 {
			t.Errorf("point span %v has %d children, want run+submit", k, len(children[sp.ID]))
		}
	}

	// (c) Merged Perfetto trace: one track per log, span count
	// preserved (points × attempts of each phase).
	var trace bytes.Buffer
	w0 := readLog(t, logs[0])
	w1 := readLog(t, logs[1])
	if err := obs.WriteSpanTrace(&trace, []obs.SpanLog{*w0, *coSpans, *w1}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		count[ev.Name]++
	}
	if count["grant"] != n || count["point"] != n {
		t.Errorf("merged trace has %d grant and %d point spans, want %d each", count["grant"], count["point"], n)
	}
	if count["thread_name"] != 3 {
		t.Errorf("merged trace has %d tracks, want 3", count["thread_name"])
	}

	// Worker telemetry reached the registries: slots did work and
	// lease waits were observed.
	var expo bytes.Buffer
	if err := regs[0].WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"worker_slot_busy_seconds", "worker_slot_points_total", "worker_lease_wait_seconds", "worker_run_seconds"} {
		if !strings.Contains(expo.String(), metric) {
			t.Errorf("worker registry is missing %s", metric)
		}
	}

	// The coordinator journal holds results only: every line after the
	// header is one complete point result of this grid, and together
	// they cover every point.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := obs.SplitLines(data)
	if len(lines) == 0 {
		t.Fatal("empty journal")
	}
	journaled := map[int]bool{}
	for i, line := range lines[1:] {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var pr farm.ShardPointResult
		if err := dec.Decode(&pr); err != nil {
			t.Fatalf("journal line %d is not a point result: %v\n%s", i+1, err, line)
		}
		if err := comp.CheckResult(pr); err != nil {
			t.Errorf("journal line %d: %v", i+1, err)
		}
		journaled[pr.Index] = true
	}
	if len(journaled) != n {
		t.Errorf("journal holds %d of the %d points", len(journaled), n)
	}
}

// TestWorkerAbortFlushesSpans is the SIGINT-mid-lease contract: a
// worker cancelled while executing a leased point still flushes a
// valid span log, the open point span closes with status aborted, and
// the coordinator re-queues the point once the lease expires.
func TestWorkerAbortFlushesSpans(t *testing.T) {
	sweep := fixtureSweep()
	// ~75× the fixture arrival rate makes each point run for hundreds
	// of milliseconds — the cancel below lands mid-execution.
	sweep.Base.Workload.Synthetic.ArrivalRate *= 75

	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)

	var log syncBuffer
	rec := obs.NewSpanRecorder(&log)
	ctx, cancel := context.WithCancel(testCtx(t))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Work(ctx, srv.URL, WorkerConfig{
			Name: "doomed", Parallel: 1, Poll: 5 * time.Millisecond, Spans: rec,
		})
		done <- err
	}()

	// Wait until the worker holds a lease, give the run a moment to be
	// mid-flight, then yank the context — the CLI's SIGINT path.
	deadline := time.Now().Add(30 * time.Second)
	for co.Status().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("aborted worker returned %v, want context.Canceled", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// The flushed log is valid JSONL and the in-flight point closed
	// aborted (the pure-compute run finishes; the abandonment lands on
	// the submit).
	spans := readLog(t, &log)
	aborted := map[string]bool{}
	for _, sp := range spans.Spans {
		if sp.Status == obs.SpanAborted {
			aborted[sp.Phase] = true
		}
	}
	if !aborted["point"] || !aborted["submit"] {
		t.Fatalf("aborted phases %v, want the in-flight point and submit spans closed aborted", aborted)
	}

	// The abandoned lease expires and the point re-queues: a rescuer
	// can lease it again, at a higher attempt.
	var lease LeaseResponse
	for deadline := time.Now().Add(30 * time.Second); len(lease.Points) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("abandoned point never re-queued")
		}
		time.Sleep(10 * time.Millisecond)
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "rescuer"}, &lease)
	}
	if len(lease.Attempts) != 1 || lease.Attempts[0] != 2 {
		t.Errorf("re-leased attempts %v, want the stolen point at attempt 2", lease.Attempts)
	}
}

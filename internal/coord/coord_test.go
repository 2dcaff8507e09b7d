package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/workload"
)

// fixtureSweep is the same threshold×farm-size miniature the farm and
// CLI tests use: milliseconds per point, six points, a knee selector so
// the final verdict is part of the byte-identity check.
func fixtureSweep() farm.Sweep {
	cfg := workload.DefaultSynthetic(2, 0)
	cfg.NumFiles = 300
	cfg.MinSize = disk.MB
	cfg.MaxSize = 40 * disk.MB
	return farm.Sweep{
		Name: "coord-fixture",
		Base: farm.Spec{
			Name:     "coord-fixture",
			Workload: farm.SyntheticWorkload(cfg),
			Alloc:    farm.Packed(0.7),
		},
		Axes: []farm.Axis{
			{Kind: farm.AxisSpinThreshold, Values: []float64{30, 120, 600}},
			{Kind: farm.AxisFarmSize, Values: []float64{8, 12}},
		},
		Select: farm.Selector{Kind: farm.SelectKnee},
	}
}

// resultJSON canonicalizes a sweep result: equal bytes mean equal
// points, metrics, and selector verdict.
func resultJSON(t *testing.T, res *farm.SweepResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// directResult runs the reference single-process sweep.
func directResult(t *testing.T, sweep farm.Sweep, seed int64) string {
	t.Helper()
	res, err := farm.RunSweep(sweep, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// testCtx bounds every coordinator test so a protocol bug cannot hang
// the suite.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// startServer exposes a coordinator over real HTTP.
func startServer(t *testing.T, co *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { co.Close() })
	return srv
}

// postJSON performs one raw protocol call (the tests' stand-in for a
// misbehaving or dead worker).
func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestCoordinatorMatchesRunSweep is the core guarantee: two concurrent
// pull-based workers drain the queue and the assembled report is
// byte-identical to the single-process RunSweep of the same sweep and
// seed.
func TestCoordinatorMatchesRunSweep(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	var wg sync.WaitGroup
	points := make([]int, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := Work(ctx, srv.URL, WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Parallel: 2, Poll: 5 * time.Millisecond,
			})
			points[i], errs[i] = stats.Points, err
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
	if got := points[0] + points[1]; got < sweep.NumPoints() {
		t.Errorf("workers computed %d points together, grid has %d", got, sweep.NumPoints())
	}
	if resultJSON(t, res) != want {
		t.Fatal("coordinator result differs from single-process RunSweep")
	}
	if st := co.Status(); st.Done != sweep.NumPoints() || st.Pending != 0 {
		t.Errorf("final status %+v", st)
	}
}

// TestWorkerDeathReleases pins the work-stealing path: a worker leases
// points and dies without submitting; after the lease expires a healthy
// worker steals them and the final report is still byte-identical.
func TestWorkerDeathReleases(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	// The "dead" worker: leases three points, one request at a time,
	// and is never heard from again.
	for i := 0; i < 3; i++ {
		var lease LeaseResponse
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "doomed"}, &lease)
		if len(lease.Points) != 1 || lease.Points[0].Index != i {
			t.Fatalf("dead worker's lease %d granted %+v, want point %d alone", i, lease.Points, i)
		}
	}
	if st := co.Status(); st.Leased != 3 {
		t.Fatalf("%d points leased, want the dead worker's 3", st.Leased)
	}

	stats, err := Work(ctx, srv.URL, WorkerConfig{Name: "healthy", Parallel: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// At least the whole grid: under a slow scheduler the healthy
	// worker's own short lease can expire mid-point and the re-leased
	// copy is recomputed — WorkStats counts that duplicate as real work.
	if stats.Points < sweep.NumPoints() {
		t.Errorf("healthy worker computed %d points, want at least the whole %d-point grid", stats.Points, sweep.NumPoints())
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("post-death result differs from single-process RunSweep")
	}
}

// TestLeaseGrantsOnePoint pins the one-point lease: a request written
// by an older client that asked for several points gets exactly one.
func TestLeaseGrantsOnePoint(t *testing.T) {
	co, err := New(fixtureSweep(), 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	var lease LeaseResponse
	if resp := postJSON(t, srv.URL+"/v1/lease", json.RawMessage(`{"Worker":"old","Max":3}`), &lease); resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: status %d", resp.StatusCode)
	}
	if len(lease.Points) != 1 || len(lease.Attempts) != 1 || lease.Points[0].Index != 0 || lease.Attempts[0] != 1 {
		t.Fatalf("Max:3 lease granted points %+v attempts %v, want point 0 at attempt 1 alone", lease.Points, lease.Attempts)
	}
	if st := co.Status(); st.Leased != 1 || st.Pending != st.Total-1 {
		t.Errorf("after one lease: %d leased, %d pending of %d", st.Leased, st.Pending, st.Total)
	}
}

// TestDuplicateSubmit proves idempotency: submitting one point twice
// (two workers racing on a stolen lease) discards the second copy and
// leaves the final report untouched.
func TestDuplicateSubmit(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := comp.RunPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	var first, second SubmitResponse
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "a", Point: pr}, &first)
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "b", Point: pr}, &second)
	if first.Duplicate || !second.Duplicate {
		t.Errorf("duplicate flags: first=%+v second=%+v", first, second)
	}

	// A result that disagrees with the compiled grid is refused, not
	// merged.
	bad := pr
	bad.Label = "threshold=999s farm=8"
	if resp := postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "evil", Point: bad}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("mislabeled submission got HTTP %d, want 422", resp.StatusCode)
	}

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("result with duplicate submissions differs from single-process RunSweep")
	}
}

// TestJournalRestart pins crash recovery: a coordinator journals three
// completed points and "crashes"; its successor on the same journal
// starts with them done, the pool finishes the rest, and the report is
// byte-identical.
func TestJournalRestart(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")
	ctx := testCtx(t)

	co1, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := startServer(t, co1)
	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pr, err := comp.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		postJSON(t, srv1.URL+"/v1/submit", SubmitRequest{Worker: "w", Point: pr}, nil)
	}
	// Crash: no graceful drain, just the journal left behind.
	srv1.Close()
	co1.Close()

	co2, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if got := co2.Recovered(); got != 3 {
		t.Fatalf("restarted coordinator recovered %d points, want 3", got)
	}
	srv2 := startServer(t, co2)
	stats, err := Work(ctx, srv2.URL, WorkerConfig{Name: "w2", Parallel: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != sweep.NumPoints()-3 {
		t.Errorf("worker after restart computed %d points, want %d", stats.Points, sweep.NumPoints()-3)
	}
	res, err := co2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("journal-recovered result differs from single-process RunSweep")
	}

	// A journal from another seed must be refused, not resumed.
	if _, err := New(sweep, 10, Config{JournalPath: journal}); err == nil ||
		!strings.Contains(err.Error(), "different sweep or seed") {
		t.Errorf("wrong-seed journal accepted: %v", err)
	}
}

// TestFullyJournaledGrid: a coordinator whose journal already covers
// the whole grid completes without any worker.
func TestFullyJournaledGrid(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")

	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := farm.OpenPointJournal(journal, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < comp.NumPoints(); i++ {
		pr, err := comp.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(pr); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	co, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	res, err := co.Wait(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("fully journaled result differs from single-process RunSweep")
	}
}

// TestServeEndToEnd drives the one-call wrapper over a real listener:
// Serve on 127.0.0.1:0, a late-joining worker, and journal cleanup
// after success.
func TestServeEndToEnd(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")
	ctx := testCtx(t)

	addrCh := make(chan string, 1)
	type served struct {
		res *farm.SweepResult
		err error
	}
	servedCh := make(chan served, 1)
	go func() {
		res, err := Serve(ctx, sweep, 9, "127.0.0.1:0", Config{
			JournalPath: journal,
			OnListen:    func(a net.Addr) { addrCh <- a.String() },
		})
		servedCh <- served{res, err}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case got := <-servedCh:
		t.Fatalf("Serve exited before listening: res=%v err=%v", got.res, got.err)
	}
	if _, err := Work(ctx, "http://"+addr, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got := <-servedCh
	if got.err != nil {
		t.Fatal(got.err)
	}
	if resultJSON(t, got.res) != want {
		t.Fatal("Serve result differs from single-process RunSweep")
	}
	// Success leaves the journal on disk — until the caller persists
	// the report it is the drained grid's only durable copy (cmd/disksim
	// deletes it after printing). A restart on it drains instantly.
	co, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatalf("reopening journal after a successful run: %v", err)
	}
	if got, want := co.Recovered(), co.Status().Total; got != want {
		t.Errorf("journal after success recovered %d of %d points", got, want)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("journal-reassembled result differs from single-process RunSweep")
	}
	if err := co.RemoveJournal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("RemoveJournal left the file: %v", err)
	}
}

// TestConfigValidation pins the loud-range-error satellite: out-of-range
// lease and parallelism values are rejected with the valid range named,
// not clamped.
func TestConfigValidation(t *testing.T) {
	sweep := fixtureSweep()
	if _, err := New(sweep, 1, Config{LeaseTimeout: -time.Second}); err == nil || !strings.Contains(err.Error(), "valid values") {
		t.Errorf("negative lease accepted: %v", err)
	}
	if _, err := Work(context.Background(), "http://127.0.0.1:0", WorkerConfig{Parallel: -1}); err == nil || !strings.Contains(err.Error(), "valid values") {
		t.Errorf("negative parallelism accepted: %v", err)
	}
	custom := sweep
	custom.Axes = append(custom.Axes, farm.Axis{Kind: farm.AxisCustom, Labels: []string{"a"},
		Apply: func(*farm.Spec, int, []int) error { return nil }})
	if _, err := New(custom, 1, Config{}); err == nil || !strings.Contains(err.Error(), "custom axes") {
		t.Errorf("custom-axis sweep served: %v", err)
	}
}

// TestWorkerCancellation: a cancelled worker returns ctx.Err() and its
// abandoned leases re-queue for the survivors.
func TestWorkerCancellation(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Work(cancelled, srv.URL, WorkerConfig{Name: "quitter", Parallel: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled worker returned %v, want context.Canceled", err)
	}

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "finisher", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("result after a cancelled worker differs from single-process RunSweep")
	}
}

// TestPoisonPointFailsRun pins the failure-propagation path: a point
// whose execution errors deterministically (an infeasible plan-only
// packing) must fail the run loudly — worker reports it, coordinator
// turns terminal, Wait returns the point error — instead of re-leasing
// the poison point until the pool drains and the coordinator waits
// forever.
func TestPoisonPointFailsRun(t *testing.T) {
	sweep := fixtureSweep()
	sweep.PlanOnly = true
	// L=0.0001 makes every file overflow the per-disk budget: Compile
	// succeeds, RunPoint fails — the poison shape.
	sweep.Axes = append(sweep.Axes, farm.Axis{Kind: farm.AxisCapL, Values: []float64{0.7, 0.0001}})

	co, err := New(sweep, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err == nil {
		t.Error("worker on a poison grid returned nil error")
	}
	res, err := co.Wait(ctx)
	if err == nil || res != nil {
		t.Fatalf("Wait on a poison grid = (%v, %v), want the point error", res, err)
	}
	if !strings.Contains(err.Error(), "does not fit") || !strings.Contains(err.Error(), "L=0.0001") {
		t.Errorf("poison error does not name the point and cause: %v", err)
	}
}

// A failed coordinator stops the pool: after a fail report, a lease and
// a submit of a valid point both answer 410 Gone with the failure text —
// a status that ends a worker at once — and nothing more is leased.
func TestFailedCoordinatorAnswersGone(t *testing.T) {
	sweep := fixtureSweep()
	co, err := New(sweep, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	c, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.RunPoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, srv.URL+"/v1/fail", FailRequest{Worker: "w", Index: 0, Error: "disk on fire"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail report: status %d", resp.StatusCode)
	}
	leased := co.Status().Leased
	for path, body := range map[string]any{
		"/v1/lease":  LeaseRequest{Worker: "w2"},
		"/v1/submit": SubmitRequest{Worker: "w2", Point: pr},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusGone || !strings.Contains(string(msg), "disk on fire") {
			t.Errorf("%s on a failed run: status %d %q, want 410 with the failure", path, resp.StatusCode, msg)
		}
	}
	if got := co.Status().Leased; got > leased {
		t.Errorf("a failed run leased more points: %d, was %d", got, leased)
	}
}

// Lease, heartbeat and fail bodies are bounded: an oversized one is
// refused with 413 before it reaches the queue, which stays exactly as
// it was and still serves well-formed calls.
func TestOversizedBodiesRejected(t *testing.T) {
	co, err := New(fixtureSweep(), 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	before, _ := json.Marshal(co.Status())
	huge := strings.Repeat("x", maxSmallBody)
	for path, body := range map[string]any{
		"/v1/lease":     LeaseRequest{Worker: huge},
		"/v1/heartbeat": HeartbeatRequest{Worker: huge, Indexes: []int{0}},
		"/v1/fail":      FailRequest{Worker: "w", Index: 0, Error: huge},
	} {
		if resp := postJSON(t, srv.URL+path, body, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	if after, _ := json.Marshal(co.Status()); !bytes.Equal(before, after) {
		t.Errorf("oversized bodies changed the queue:\nbefore %.300s\nafter  %.300s", before, after)
	}
	var lease LeaseResponse
	if resp := postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "w"}, &lease); resp.StatusCode != http.StatusOK || len(lease.Points) != 1 {
		t.Errorf("well-formed lease after the oversized ones: status %d, %d points", resp.StatusCode, len(lease.Points))
	}
}

// TestUndecodableSweepFailsFast: a coordinator whose sweep this build
// cannot decode (a diverged build, or a kind it does not know) fails
// the worker on the first answer — no retry can change a body that
// arrived whole.
func TestUndecodableSweepFailsFast(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"Sweep":{"Base":{"Spin":{"Kind":"no-such-kind"}}},"Seed":1}`+"\n")
	}))
	t.Cleanup(srv.Close)
	const retry = 10 * time.Second
	start := time.Now()
	_, err := Work(testCtx(t), srv.URL, WorkerConfig{Name: "w", Parallel: 1, Retry: retry})
	if err == nil || !strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("Work returned %v, want the decode failure", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("the worker asked %d times, want once (no retries)", n)
	}
	if took := time.Since(start); took > retry/4 {
		t.Errorf("the worker took %v to fail, want well inside its %v retry budget", took, retry)
	}
}

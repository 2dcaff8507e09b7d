package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// Worker defaults for the zero WorkerConfig values.
const (
	defaultPoll    = 200 * time.Millisecond
	defaultRetry   = 30 * time.Second
	defaultTimeout = 30 * time.Second
)

// heartbeatFloor is the fastest the worker will heartbeat. Leases
// shorter than a few beats cannot be renewed reliably, which is why
// Config.validate floors LeaseTimeout at MinLeaseTimeout = 3× this.
const heartbeatFloor = 50 * time.Millisecond

// WorkerConfig parameterizes one pull-based worker process.
type WorkerConfig struct {
	// Name identifies the worker in leases and logs. Empty derives
	// "<hostname>-<pid>".
	Name string
	// Parallel is how many leased points execute concurrently. Zero
	// means one per core; negative is rejected.
	Parallel int
	// Poll is how long to wait before re-asking when every point is
	// leased out elsewhere. Zero means 200ms.
	Poll time.Duration
	// Retry is the budget for retrying transient coordinator failures
	// (connection refused while the coordinator boots, a dropped
	// conn). Zero means 30s; exceeding it fails the worker.
	Retry time.Duration
	// Token is the coordinator's shared secret (Config.Token); sent as
	// a bearer credential on every request. A wrong or missing token
	// against an authenticated coordinator fails fast with 401.
	Token string
	// Spans, when non-nil, receives this worker's span log: a compile
	// span, per-slot lease waits, and a point span per leased attempt
	// with run/submit children plus retry/steal events. The worker
	// writes the header itself once the sweep compiles (Track = Name).
	// Observation-only — results are byte-identical with or without
	// it.
	Spans *obs.SpanRecorder
	// Metrics, when non-nil, registers the worker's telemetry there:
	// per-slot utilization gauges and per-phase latency histograms.
	Metrics *obs.Registry
}

// validate applies defaults and rejects out-of-range values loudly.
func (c *WorkerConfig) validate() error {
	if c.Parallel == 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Parallel < 1 {
		return fmt.Errorf("coord: worker parallelism %d: valid values are >= 1 (or 0 for one per core)", c.Parallel)
	}
	if c.Poll == 0 {
		c.Poll = defaultPoll
	}
	if c.Poll < 0 {
		return fmt.Errorf("coord: poll interval %v: valid values are > 0 (or 0 for the default %v)", c.Poll, defaultPoll)
	}
	if c.Retry == 0 {
		c.Retry = defaultRetry
	}
	if c.Retry < 0 {
		return fmt.Errorf("coord: retry budget %v: valid values are > 0 (or 0 for the default %v)", c.Retry, defaultRetry)
	}
	if c.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		c.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return nil
}

// WorkStats summarizes one worker's contribution.
type WorkStats struct {
	// Worker is the resolved worker name.
	Worker string
	// Points is how many points this worker computed and submitted
	// (duplicates the coordinator discarded included — they were real
	// work here).
	Points int
	// Retries counts protocol requests that had to be re-sent after a
	// transient failure (network error or coordinator 5xx). Zero on a
	// healthy pool; a climbing count is the first symptom of a flaky
	// link or an overloaded coordinator.
	Retries int
}

// Work joins the coordinator at baseURL and pulls until the grid is
// done: fetch the sweep, compile it locally, then lease → execute →
// submit, streaming each point back the moment it completes. The
// worker may join an already-running grid and survives transient
// coordinator outages within cfg.Retry. Leased points are cross-checked
// against the locally compiled grid, so a worker built from a diverged
// engine fails loudly instead of submitting wrong numbers. Cancelling
// the context (the CLI's SIGINT/SIGTERM path) finishes nothing new and
// returns ctx.Err(); abandoned leases simply expire and re-queue.
func Work(ctx context.Context, baseURL string, cfg WorkerConfig) (WorkStats, error) {
	if err := cfg.validate(); err != nil {
		return WorkStats{}, err
	}
	w := &worker{
		cfg:    cfg,
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: defaultTimeout},
		spans:  cfg.Spans,
		wm:     newWorkerMetrics(cfg.Metrics),
	}
	stats := WorkStats{Worker: cfg.Name}

	// Joining the pool may precede the coordinator's boot — the retry
	// budget covers the gap.
	var job Job
	if err := w.call(ctx, http.MethodGet, "/v1/sweep", nil, &job); err != nil {
		return stats, fmt.Errorf("coord: worker %s fetching sweep: %w", cfg.Name, err)
	}
	compileStart := time.Now()
	comp, err := farm.Compile(job.Sweep, job.Seed)
	if err != nil {
		return stats, fmt.Errorf("coord: worker %s compiling served sweep: %w", cfg.Name, err)
	}
	// The span log opens only now: its header needs the compiled
	// grid's fingerprint, which is also every span ID's root.
	if w.spans != nil {
		if err := w.spans.Start(obs.SpanHeader{
			Track: cfg.Name, Role: "worker", SweepHash: comp.Fingerprint(),
			Seed: job.Seed, Points: comp.NumPoints(), StartUnixNano: compileStart.UnixNano(),
		}); err != nil {
			return stats, fmt.Errorf("coord: worker %s span log: %w", cfg.Name, err)
		}
		_ = w.spans.Record(obs.Span{
			Point: -1, Attempt: 0, Phase: "compile", Status: obs.SpanOK,
			Start: 0, End: time.Since(compileStart).Seconds(),
			Args: map[string]any{"points": comp.NumPoints()},
		})
	}
	stats.Points, err = w.pump(ctx, comp)
	stats.Retries = int(w.retries.Load())
	return stats, err
}

// workerMetrics is the worker's telemetry bundle; every field is
// nil-safe, so an uninstrumented worker (nil registry) records through
// no-ops.
type workerMetrics struct {
	// slotBusy accumulates per-slot seconds spent executing points —
	// utilization reads as busy seconds over wall seconds.
	slotBusy *obs.GaugeVec
	// slotPoints counts points completed per slot.
	slotPoints *obs.CounterVec
	// Per-phase latency: lease waits (ask → grant, fruitless polls
	// included), point runs, and submits.
	leaseWait *obs.Histogram
	run       *obs.Histogram
	submit    *obs.Histogram
	retries   *obs.Counter
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	return &workerMetrics{
		slotBusy:   reg.NewGaugeVec("worker_slot_busy_seconds", "seconds each slot has spent executing points", "slot"),
		slotPoints: reg.NewCounterVec("worker_slot_points_total", "points completed, by slot", "slot"),
		leaseWait: reg.NewHistogram("worker_lease_wait_seconds", "lease-request to grant wall seconds, fruitless polls included",
			[]float64{0.001, 0.01, 0.1, 0.5, 2, 10}),
		run: reg.NewHistogram("worker_run_seconds", "point execution wall seconds",
			[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120}),
		submit: reg.NewHistogram("worker_submit_seconds", "point submission wall seconds",
			[]float64{0.001, 0.01, 0.05, 0.25, 1, 5}),
		retries: reg.NewCounter("worker_retries_total", "protocol requests re-sent after a transient failure"),
	}
}

// worker carries the HTTP plumbing of one Work call.
type worker struct {
	cfg    WorkerConfig
	base   string
	client *http.Client
	// spans and wm are the observability sinks (both nil-safe).
	spans *obs.SpanRecorder
	wm    *workerMetrics
	// retries counts re-sent protocol requests across every slot
	// (atomic — slots call concurrently); surfaced as WorkStats.Retries.
	retries atomic.Int64
	// leaseSeq numbers this worker's lease-wait spans (run-level spans
	// have no coordinator-assigned attempt to key on).
	leaseSeq atomic.Int64
	// draining, when non-nil, reports that the grid is known drained;
	// call() then stops retrying transient failures — the coordinator
	// shutting down after its linger window is the expected reason for
	// them, not an outage worth the budget. (A lone slot whose point
	// was stolen has no such signal: if its late submit finds the
	// listener gone, it cannot tell a drain from a crash and reports
	// the failure — the principled move, since its own work's fate is
	// unknown.)
	draining func() bool
}

// pump runs cfg.Parallel independent slots, each its own lease →
// execute → submit loop pulling one point at a time. Slots never
// barrier on each other, so concurrency is exactly cfg.Parallel, and a
// slow point occupies only its own slot while the rest keep leasing
// fresh work. A slot runs every point a lease grants in turn, so it
// also drains a coordinator that grants several per lease. One heartbeat
// loop covers every point any slot holds. (A slot holds at most one
// point, so a lease the coordinator steals back mid-run needs no
// bookkeeping here: nothing is queued behind it, the run cannot be
// aborted, and its submit lands as a harmless duplicate.)
func (w *worker) pump(ctx context.Context, comp *farm.CompiledSweep) (int, error) {
	slotCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu sync.Mutex
		// held counts slots computing each point — a count, not a set,
		// because the coordinator can re-lease this worker's own expired
		// point to a sibling slot, and the first finisher must not
		// strip the survivor's heartbeat coverage.
		held = make(map[int]int, w.cfg.Parallel)
		// attempts remembers the latest lease attempt per held point,
		// so a steal reported by heartbeat logs the attempt it ended.
		attempts   = make(map[int]int, w.cfg.Parallel)
		hbInterval time.Duration // from lease responses; 0 until the first grant
		computed   int
		gridDone   bool
		firstErr   error
	)
	// The first slot to read Done winds the others down immediately:
	// the coordinator only lingers briefly after the drain, so a
	// sibling polling for one more lease would find a closed port and
	// burn its whole retry budget on a run that already succeeded.
	markDone := func() {
		mu.Lock()
		gridDone = true
		mu.Unlock()
		cancel()
	}
	w.draining = func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gridDone
	}

	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		for {
			mu.Lock()
			interval := hbInterval
			mu.Unlock()
			if interval <= 0 {
				interval = heartbeatFloor
			}
			t := time.NewTimer(interval)
			select {
			case <-hbStop:
				t.Stop()
				return
			case <-slotCtx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			mu.Lock()
			idx := make([]int, 0, len(held))
			for i := range held {
				idx = append(idx, i)
			}
			mu.Unlock()
			if len(idx) == 0 {
				continue
			}
			// A missed heartbeat is not fatal — the lease just edges
			// toward expiry; the next beat or the submission renews it.
			// The response's Dropped list (points stolen from us) is
			// deliberately not acted on: a slot holds one point it
			// cannot abort mid-run, and a finished result is worth
			// submitting anyway — submits are idempotent, first write
			// wins, so ours may still land, and the submit response is
			// how a lone slot learns the grid drained.
			var resp HeartbeatResponse
			if err := w.once(slotCtx, http.MethodPost, "/v1/heartbeat", HeartbeatRequest{Worker: w.cfg.Name, Indexes: idx}, &resp); err == nil {
				for _, i := range resp.Dropped {
					mu.Lock()
					a := attempts[i]
					mu.Unlock()
					w.spans.Event(i, a, "stolen", obs.SpanStolen, nil)
				}
			}
		}
	}()

	slot := func(slotID int) error {
		slotLabel := strconv.Itoa(slotID)
		for {
			if err := slotCtx.Err(); err != nil {
				return err
			}
			leaseStart := time.Now()
			var lease LeaseResponse
			if err := w.call(slotCtx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: w.cfg.Name}, &lease); err != nil {
				return fmt.Errorf("coord: worker %s leasing: %w", w.cfg.Name, err)
			}
			if lease.LeaseSeconds > 0 {
				mu.Lock()
				if hbInterval = time.Duration(lease.LeaseSeconds / 3 * float64(time.Second)); hbInterval < heartbeatFloor {
					hbInterval = heartbeatFloor
				}
				mu.Unlock()
			}
			if len(lease.Points) == 0 {
				if lease.Done {
					markDone()
					return nil
				}
				// Everything is leased out elsewhere; wait for a lease
				// to expire or the grid to drain.
				if err := sleep(slotCtx, w.cfg.Poll); err != nil {
					return err
				}
				continue
			}
			// A granted lease ends this slot's wait — observed once per
			// grant, as a run-level span keyed by a worker-local
			// sequence (grants on different slots interleave freely).
			w.wm.leaseWait.Observe(time.Since(leaseStart).Seconds())
			if w.spans != nil {
				seq := int(w.leaseSeq.Add(1))
				_ = w.spans.Record(obs.Span{
					Point: -1, Attempt: seq, Phase: "lease", Status: obs.SpanOK,
					Start: w.spans.Since(leaseStart), End: w.spans.Since(time.Now()),
					Args: map[string]any{"slot": slotID, "granted": len(lease.Points)},
				})
			}
			done := false
			for k, sp := range lease.Points {
				attempt := 0
				if k < len(lease.Attempts) {
					attempt = lease.Attempts[k]
				}
				mu.Lock()
				held[sp.Index]++
				attempts[sp.Index] = attempt
				mu.Unlock()
				// The parent context, deliberately: a sibling slot
				// reading Done cancels slotCtx, and that must not chop
				// an in-flight submit the coordinator may already have
				// counted toward the drain.
				busyStart := time.Now()
				resp, err := w.runPoint(ctx, comp, sp, attempt, slotID)
				w.wm.slotBusy.With(slotLabel).Add(time.Since(busyStart).Seconds())
				mu.Lock()
				if held[sp.Index]--; held[sp.Index] <= 0 {
					delete(held, sp.Index)
					delete(attempts, sp.Index)
				}
				if err == nil {
					computed++
				}
				gd := gridDone
				mu.Unlock()
				if err != nil {
					if gd {
						// The grid drained while this (necessarily
						// duplicate) point was in flight; a failed
						// submit against a gone coordinator is moot.
						return nil
					}
					return err
				}
				w.wm.slotPoints.With(slotLabel).Inc()
				done = done || resp.Done
			}
			if done {
				markDone()
				return nil
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(w.cfg.Parallel)
	for g := 0; g < w.cfg.Parallel; g++ {
		go func(slotID int) {
			defer wg.Done()
			if err := slot(slotID); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel() // wind the other slots down
			}
		}(g)
	}
	wg.Wait()
	close(hbStop)
	hbWg.Wait()
	if firstErr != nil && !errors.Is(firstErr, context.Canceled) {
		// A real failure outranks everything, drained grid included.
		return computed, firstErr
	}
	if gridDone {
		// Cancellations here are markDone winding the other slots down.
		return computed, nil
	}
	if ctx.Err() != nil {
		// Normalize: the caller cancelled, whatever slot noticed first.
		return computed, ctx.Err()
	}
	return computed, firstErr
}

// runPoint checks, executes, and submits one leased point. The submit
// happens even if the lease has meanwhile expired or been stolen:
// submits are idempotent and first-write-wins, so a finished result is
// never wasted, and the response's Done flag is the only way a lone
// slot learns the grid drained. The point's span (with run and submit
// children) is keyed by the coordinator-assigned attempt, so every log
// touching this attempt agrees on its identity.
func (w *worker) runPoint(ctx context.Context, comp *farm.CompiledSweep, sp farm.ShardPoint, attempt, slotID int) (SubmitResponse, error) {
	ph := w.spans.Begin(sp.Index, attempt, "point", map[string]any{"label": sp.Label, "slot": slotID})
	if err := comp.Check(sp); err != nil {
		// A diverged build is this worker's defect, not the grid's —
		// exit without poisoning the run for healthy workers.
		ph.End(obs.SpanError, map[string]any{"error": err.Error()})
		return SubmitResponse{}, fmt.Errorf("coord: worker %s lease: %w", w.cfg.Name, err)
	}
	rh := w.spans.BeginChild(ph, "run", nil)
	runStart := time.Now()
	pr, err := comp.RunPoint(sp.Index)
	w.wm.run.Observe(time.Since(runStart).Seconds())
	if err != nil {
		// Points are pure functions of (spec, seed): every worker would
		// fail this one identically, so report it — otherwise the queue
		// re-leases the poison point until the pool drains and the
		// coordinator waits forever.
		rh.End(obs.SpanError, map[string]any{"error": err.Error()})
		ph.End(obs.SpanError, nil)
		_ = w.call(ctx, http.MethodPost, "/v1/fail", FailRequest{Worker: w.cfg.Name, Index: sp.Index, Error: err.Error()}, nil)
		return SubmitResponse{}, fmt.Errorf("coord: worker %s point %s: %w", w.cfg.Name, sp.Label, err)
	}
	rh.End(obs.SpanOK, nil)
	sh := w.spans.BeginChild(ph, "submit", nil)
	submitStart := time.Now()
	var resp SubmitResponse
	if err := w.call(ctx, http.MethodPost, "/v1/submit", SubmitRequest{Worker: w.cfg.Name, Point: pr}, &resp); err != nil {
		// A cancelled worker (SIGINT) is abandoning the point, not
		// hitting a defect — the span log must say so.
		status := obs.SpanError
		if ctx.Err() != nil {
			status = obs.SpanAborted
		}
		sh.End(status, map[string]any{"error": err.Error()})
		ph.End(status, nil)
		return SubmitResponse{}, fmt.Errorf("coord: worker %s submitting point %s: %w", w.cfg.Name, sp.Label, err)
	}
	w.wm.submit.Observe(time.Since(submitStart).Seconds())
	if resp.Duplicate {
		// Real work here, but another worker's write won the race.
		sh.End(obs.SpanDuplicate, nil)
		ph.End(obs.SpanOK, map[string]any{"duplicate": true})
	} else {
		sh.End(obs.SpanOK, nil)
		ph.End(obs.SpanOK, nil)
	}
	return resp, nil
}

// fatalStatus reports whether an HTTP status ends the worker rather
// than being retried: client errors mean the request itself is wrong
// (a diverged build, a bad URL) and repeating it cannot help.
func fatalStatus(code int) bool { return code >= 400 && code < 500 }

// httpError is a non-2xx response.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// call performs one protocol request, retrying transient failures
// (network errors, 5xx) with exponential backoff within the Retry
// budget. 4xx responses are fatal immediately.
func (w *worker) call(ctx context.Context, method, path string, in, out any) error {
	deadline := time.Now().Add(w.cfg.Retry)
	backoff := 100 * time.Millisecond
	for {
		err := w.once(ctx, method, path, in, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var he *httpError
		if errors.As(err, &he) && fatalStatus(he.code) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		if w.draining != nil && w.draining() {
			return err
		}
		if serr := sleep(ctx, backoff); serr != nil {
			return serr
		}
		n := w.retries.Add(1)
		w.wm.retries.Inc()
		w.spans.Event(-1, int(n), "retry", obs.SpanError,
			map[string]any{"path": path, "error": err.Error()})
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// once performs a single protocol request.
func (w *worker) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.Token)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &httpError{code: resp.StatusCode, body: string(msg)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits for d or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

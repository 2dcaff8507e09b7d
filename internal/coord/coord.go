// Package coord is the work-stealing sweep coordinator: the elastic
// alternative to static shard manifests (farm.Shard) for running one
// grid across a pool of machines that may join, straggle, or die
// mid-run.
//
// A coordinator (New / Serve) compiles a farm.Sweep into a point queue
// and serves it over HTTP. Pull-based workers (Work) lease points one
// slot at a time, execute them with the exact per-point seeding
// farm.RunSweep uses, and stream every completed point back
// immediately. Leases expire and re-queue, so a dead or slow worker's
// points are simply handed to whoever asks next; duplicate submissions
// are idempotent (each point is a pure function of spec and seed, so
// any two answers agree). Completed points are journaled to disk
// incrementally, so a coordinator restart loses at most the point
// being written. When the queue drains, the assembled report is
// byte-identical to the single-process farm.RunSweep of the same
// (sweep, seed) — whatever the worker count, interleaving, or failure
// history.
package coord

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// Defaults for the zero Config values.
const (
	DefaultLeaseTimeout = time.Minute
	DefaultLinger       = 2 * time.Second
)

// MinLeaseTimeout is the shortest lease a coordinator accepts. Workers
// heartbeat at a third of the lease but no faster than heartbeatFloor,
// so a shorter lease could never be renewed — every in-flight point
// would expire and re-queue mid-run, thrashing the pool with duplicate
// work.
const MinLeaseTimeout = 3 * heartbeatFloor

// Config parameterizes a coordinator.
type Config struct {
	// LeaseTimeout is how long a leased point may go without a
	// heartbeat or submission before it re-queues for other workers.
	// Zero means DefaultLeaseTimeout; negative is rejected.
	LeaseTimeout time.Duration
	// JournalPath, when non-empty, appends every completed point to a
	// crash journal (farm.PointJournal). A coordinator restarted on the
	// same journal resumes with those points already done.
	JournalPath string
	// Linger is how long Serve keeps answering after the grid drains,
	// so workers between polls read their Done instead of a vanished
	// listener. Zero means DefaultLinger; negative is rejected.
	Linger time.Duration
	// Token, when non-empty, requires every protocol request to carry
	// "Authorization: Bearer <Token>" (compared in constant time;
	// mismatches get 401) — the shared secret that lets a pool cross a
	// trust boundary. Transport privacy is still the deployment's
	// problem: put TLS in front for hostile networks.
	Token string
	// OnListen, when non-nil, is called by Serve once the listener is
	// bound — how callers learn the actual address of ":0".
	OnListen func(addr net.Addr)
	// Spans, when non-nil, receives one grant span per lease attempt:
	// granted→submitted (ok), granted→stolen, or left open and closed
	// aborted when the recorder shuts down. Observation-only — results
	// are byte-identical with or without it. The coordinator writes
	// the header itself (Track "coordinator").
	Spans *obs.SpanRecorder
}

// validate applies defaults and rejects out-of-range values loudly.
func (c *Config) validate() error {
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = DefaultLeaseTimeout
	}
	if c.LeaseTimeout < MinLeaseTimeout {
		return fmt.Errorf("coord: lease timeout %v: valid values are >= %v — workers heartbeat at a third of the lease, no faster than every %v (or 0 for the default %v)",
			c.LeaseTimeout, MinLeaseTimeout, heartbeatFloor, DefaultLeaseTimeout)
	}
	if c.Linger == 0 {
		c.Linger = DefaultLinger
	}
	if c.Linger < 0 {
		return fmt.Errorf("coord: linger %v: valid values are > 0 (or 0 for the default %v)", c.Linger, DefaultLinger)
	}
	return nil
}

// Wire types of the /v1 protocol. Points travel as farm.ShardPoint and
// farm.ShardPointResult — the same descriptors shard manifests use —
// so a worker cross-checks leased work against its own compiled grid
// exactly as RunShard cross-checks a manifest.
type (
	// Job is the GET /v1/sweep response: everything a joining worker
	// needs to compile the grid locally.
	Job struct {
		Seed  int64
		Sweep farm.Sweep
	}
	// LeaseRequest asks for one point. Fields a client adds beyond
	// Worker, such as an older client's Max, are ignored.
	LeaseRequest struct {
		Worker string
	}
	// LeaseResponse grants at most one point: Points and Attempts are
	// /v1 arrays holding zero or one entry. Empty Points with
	// Done=false means everything is leased out elsewhere — poll again;
	// Done=true means the grid is complete and the worker can exit.
	LeaseResponse struct {
		Points []farm.ShardPoint
		// Attempts runs parallel to Points: the global lease attempt
		// number of each grant (1 on the first lease, higher after
		// expiries). Span IDs derive from it, so every process that
		// touches the same attempt logs the same identity. Absent from
		// pre-span coordinators; workers fall back to attempt 0.
		Attempts     []int `json:",omitempty"`
		LeaseSeconds float64
		Done         bool
	}
	// HeartbeatRequest extends the leases this worker still holds.
	HeartbeatRequest struct {
		Worker  string
		Indexes []int
	}
	// HeartbeatResponse lists the points no longer leased to the caller
	// (expired and possibly re-leased). Informational: a client that
	// can abort work may stop computing them; the reference worker
	// finishes and submits anyway, since submits are idempotent and
	// first-write-wins means a finished result may still land.
	HeartbeatResponse struct {
		Dropped []int
	}
	// SubmitRequest streams one completed point back.
	SubmitRequest struct {
		Worker string
		Point  farm.ShardPointResult
	}
	// SubmitResponse acknowledges a submission. Duplicate means the
	// point was already complete (the submission was discarded —
	// harmlessly, results being pure). Done means the grid drained.
	SubmitResponse struct {
		Duplicate bool
		Done      bool
	}
	// FailRequest reports a point whose execution failed. Points are
	// pure functions of (spec, seed), so one worker's failure is every
	// worker's failure: the coordinator fails the run loudly instead of
	// re-leasing the poison point forever to a pool that drains away.
	FailRequest struct {
		Worker string
		Index  int
		Error  string
	}
	// Status is the GET /v1/status response: queue counters.
	// Expired counts leases that timed out and were stolen by another
	// worker; Duplicates counts submissions of already-done points —
	// both benign by design, but a climbing rate is the first sign of
	// a stuck or thrashing pool, so they are surfaced here and on
	// /metrics rather than swallowed.
	Status struct {
		Total, Done, Leased, Pending, Recovered int
		Expired, Duplicates                     int
		// LiveWorkers counts workers holding a live lease or heard
		// from within one lease timeout; MaxLeaseAgeSeconds is the age
		// of the oldest live lease. Both also surface on /metrics.
		LiveWorkers        int
		MaxLeaseAgeSeconds float64
		// Workers names every worker the coordinator has heard from,
		// sorted by name, with its in-flight points — stuck-worker
		// diagnosis straight from curl /v1/status.
		Workers []WorkerStatus
	}
	// WorkerStatus is one worker's row in Status.Workers.
	WorkerStatus struct {
		Name string
		// Points lists the labels of points under a live lease held by
		// this worker, in grid order.
		Points []string
		// OldestLeaseAgeSeconds is the age of the worker's oldest live
		// lease (0 when it holds none).
		OldestLeaseAgeSeconds float64
		// LastContactSeconds is how long ago the worker last made any
		// protocol call.
		LastContactSeconds float64
	}
)

// pointStatus is a queue entry's lifecycle stage.
type pointStatus uint8

const (
	statusPending pointStatus = iota
	statusLeased
	statusDone
)

// pointState tracks one grid point through the queue.
type pointState struct {
	status   pointStatus
	worker   string
	deadline time.Time
	// grantedAt is when the live lease was handed out — the submit
	// that completes the point turns it into a coord_point_seconds
	// observation.
	grantedAt time.Time
	// attempts counts lease grants for this point; it is the global
	// attempt number span IDs derive from.
	attempts int
}

// Coordinator owns a compiled grid's point queue and its HTTP
// protocol. Create with New, expose Handler on a server (or use Serve,
// which bundles both), and Wait for the assembled result.
type Coordinator struct {
	cfg  Config
	comp *farm.CompiledSweep

	mu        sync.Mutex
	state     []pointState
	results   []farm.ShardPointResult
	pending   int // points not yet done
	journal   *farm.PointJournal
	recovered int
	failed    error // terminal fault (journal write or point failure); leases and submits answer 410 while set
	done      chan struct{}

	// journalMu serializes journal appends outside mu, so an fsync
	// never stalls leases, heartbeats, or status reads.
	journalMu sync.Mutex

	// now is the clock, a test seam.
	now func() time.Time

	// Observability. fp is the sweep fingerprint span IDs derive
	// from; start is the time origin grant spans measure against;
	// spans is the optional recorder (nil-safe); lastContact tracks
	// each worker's most recent protocol call for Status.Workers and
	// the liveness gauge.
	fp          string
	start       time.Time
	spans       *obs.SpanRecorder
	lastContact map[string]time.Time

	// Protocol metrics, served at GET /metrics in Prometheus text
	// format. Per-worker counters make a stuck worker visible without
	// a journal autopsy: its leases climb while its submits do not.
	reg         *obs.Registry
	mLeases     *obs.CounterVec
	mExpired    *obs.CounterVec
	mSubmits    *obs.CounterVec
	mDuplicates *obs.CounterVec
	gDone       *obs.Gauge
	gLeased     *obs.Gauge
	gPending    *obs.Gauge
	gLeaseAge   *obs.Gauge
	gLive       *obs.Gauge
	hPoint      *obs.Histogram
	hFsync      *obs.Histogram
}

// New compiles the sweep and builds the point queue, recovering any
// previously journaled points when cfg.JournalPath names an existing
// journal of the same (sweep, seed).
func New(sweep farm.Sweep, seed int64, cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The grid must survive the wire: a custom axis cannot reach a
	// worker, the same restriction shard manifests carry.
	if err := farm.Shardable(sweep); err != nil {
		return nil, err
	}
	comp, err := farm.Compile(sweep, seed)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:         cfg,
		comp:        comp,
		state:       make([]pointState, comp.NumPoints()),
		results:     make([]farm.ShardPointResult, comp.NumPoints()),
		pending:     comp.NumPoints(),
		done:        make(chan struct{}),
		now:         time.Now,
		fp:          comp.Fingerprint(),
		start:       time.Now(),
		spans:       cfg.Spans,
		lastContact: make(map[string]time.Time),
		reg:         obs.NewRegistry(),
	}
	co.mLeases = co.reg.NewCounterVec("coord_leases_total", "points leased, by worker", "worker")
	co.mExpired = co.reg.NewCounterVec("coord_lease_expiries_total", "leases that expired and were stolen, by the worker that lost them", "worker")
	co.mSubmits = co.reg.NewCounterVec("coord_submits_total", "points accepted, by worker", "worker")
	co.mDuplicates = co.reg.NewCounterVec("coord_duplicate_submits_total", "submissions of already-done points, by worker", "worker")
	co.gDone = co.reg.NewGauge("coord_points_done", "points completed")
	co.gLeased = co.reg.NewGauge("coord_points_leased", "points under a live lease")
	co.gPending = co.reg.NewGauge("coord_points_pending", "points waiting for a lease")
	co.gLeaseAge = co.reg.NewGauge("coord_lease_age_max_seconds", "age of the oldest live lease")
	co.gLive = co.reg.NewGauge("coord_workers_live", "workers holding a live lease or heard from within one lease timeout")
	co.hPoint = co.reg.NewHistogram("coord_point_seconds", "lease-grant to accepted-submit wall seconds per point",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120})
	co.hFsync = co.reg.NewHistogram("coord_journal_fsync_seconds", "journal append+fsync wall seconds",
		[]float64{0.0005, 0.002, 0.01, 0.05, 0.25, 1})
	if co.spans != nil {
		if err := co.spans.Start(obs.SpanHeader{
			Track: "coordinator", Role: "coordinator", SweepHash: co.fp,
			Seed: seed, Points: comp.NumPoints(), StartUnixNano: co.start.UnixNano(),
		}); err != nil {
			return nil, err
		}
	}
	if cfg.JournalPath != "" {
		journal, points, err := farm.OpenPointJournal(cfg.JournalPath, sweep, seed)
		if err != nil {
			return nil, err
		}
		for _, pr := range points {
			if err := comp.CheckResult(pr); err != nil {
				journal.Close()
				return nil, fmt.Errorf("coord: journal %s: %w — delete it to start over", cfg.JournalPath, err)
			}
			if co.state[pr.Index].status == statusDone {
				continue
			}
			co.state[pr.Index].status = statusDone
			co.results[pr.Index] = pr
			co.pending--
			co.recovered++
		}
		co.journal = journal
	}
	if co.pending == 0 {
		close(co.done)
	}
	return co, nil
}

// Recovered reports how many points the journal restored at startup.
func (co *Coordinator) Recovered() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.recovered
}

// Status returns the queue counters.
func (co *Coordinator) Status() Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.statusLocked()
}

func (co *Coordinator) statusLocked() Status {
	s := Status{
		Total:      len(co.state),
		Recovered:  co.recovered,
		Expired:    int(co.mExpired.Total()),
		Duplicates: int(co.mDuplicates.Total()),
	}
	now := co.now()
	// Per-worker rows: in-flight labels and lease ages for every
	// worker that holds a live lease, merged with last-contact times
	// for every worker ever heard from.
	rows := make(map[string]*WorkerStatus, len(co.lastContact))
	row := func(name string) *WorkerStatus {
		ws := rows[name]
		if ws == nil {
			ws = &WorkerStatus{Name: name}
			rows[name] = ws
		}
		return ws
	}
	for i := range co.state {
		st := &co.state[i]
		switch {
		case st.status == statusDone:
			s.Done++
		case st.status == statusLeased && now.Before(st.deadline):
			s.Leased++
			age := now.Sub(st.grantedAt).Seconds()
			if age < 0 {
				age = 0
			}
			if age > s.MaxLeaseAgeSeconds {
				s.MaxLeaseAgeSeconds = age
			}
			ws := row(st.worker)
			ws.Points = append(ws.Points, co.comp.Label(i))
			if age > ws.OldestLeaseAgeSeconds {
				ws.OldestLeaseAgeSeconds = age
			}
		default:
			s.Pending++
		}
	}
	for name, at := range co.lastContact {
		ws := row(name)
		if since := now.Sub(at).Seconds(); since > 0 {
			ws.LastContactSeconds = since
		}
	}
	s.Workers = make([]WorkerStatus, 0, len(rows))
	for _, ws := range rows {
		// Live: a current lease, or any contact within one lease
		// timeout — a worker between lease polls is not dead.
		if len(ws.Points) > 0 || ws.LastContactSeconds <= co.cfg.LeaseTimeout.Seconds() {
			s.LiveWorkers++
		}
		s.Workers = append(s.Workers, *ws)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Name < s.Workers[j].Name })
	return s
}

// touchLocked records a worker's protocol contact (callers hold mu).
func (co *Coordinator) touchLocked(worker string, now time.Time) {
	if worker != "" {
		co.lastContact[worker] = now
	}
}

// Wait blocks until every point is done (or the context is cancelled,
// or the coordinator failed terminally) and assembles the final
// result — byte-identical to farm.RunSweep of the same sweep and seed.
func (co *Coordinator) Wait(ctx context.Context) (*farm.SweepResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-co.done:
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed != nil {
		return nil, co.failed
	}
	return co.comp.Assemble(co.results)
}

// Close releases the journal (the file stays on disk for a restart; the
// caller removes it once the final result is persisted elsewhere).
func (co *Coordinator) Close() error {
	co.mu.Lock()
	journal := co.journal
	co.journal = nil
	co.mu.Unlock()
	if journal == nil {
		return nil
	}
	// Taking journalMu waits out any in-flight append before the file
	// closes under it.
	co.journalMu.Lock()
	defer co.journalMu.Unlock()
	return journal.Close()
}

// RemoveJournal closes and deletes the journal file — call it after the
// final result has been persisted elsewhere. A journal already gone
// (an operator or a tmp cleaner beat us to it) is not an error.
func (co *Coordinator) RemoveJournal() error {
	if co.cfg.JournalPath == "" {
		return nil
	}
	co.Close()
	if err := os.Remove(co.cfg.JournalPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Handler returns the coordinator's HTTP protocol surface. With
// Config.Token set, every route demands the bearer token first.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweep", co.handleSweep)
	mux.HandleFunc("POST /v1/lease", co.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("POST /v1/submit", co.handleSubmit)
	mux.HandleFunc("POST /v1/fail", co.handleFail)
	mux.HandleFunc("GET /v1/status", co.handleStatus)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	if co.cfg.Token == "" {
		return mux
	}
	return authHandler(co.cfg.Token, mux)
}

// authHandler rejects requests whose Authorization header does not
// carry the expected bearer token. The comparison is constant-time, so
// the secret cannot be fished out byte by byte; 401 is deliberately
// uniform for a missing, malformed, or wrong credential.
func authHandler(token string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte("Bearer " + token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(r.Header.Get("Authorization")))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="coord"`)
			http.Error(w, "coord: missing or wrong worker token (run with -token)", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (co *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Job{Seed: co.comp.Seed(), Sweep: co.comp.Sweep()})
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, co.Status())
}

// handleMetrics serves the protocol counters in Prometheus text
// format. Queue-shape gauges are set at scrape time from the same
// snapshot /v1/status reads, so the two views always agree.
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := co.Status()
	co.gDone.Set(float64(st.Done))
	co.gLeased.Set(float64(st.Leased))
	co.gPending.Set(float64(st.Pending))
	co.gLeaseAge.Set(st.MaxLeaseAgeSeconds)
	co.gLive.Set(float64(st.LiveWorkers))
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	co.reg.WritePrometheus(w)
}

// handleLease grants the first pending or expired point and stops: a
// worker slot runs one point at a time, so a second point would only
// wait in the slot while its lease ran down. A failed run grants
// nothing more: 410 Gone carries the failure to the worker, which a 4xx
// ends at once instead of leaving it to compute points no report will
// hold.
func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeSmall(w, r, "lease request", &req) {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.now()
	co.touchLocked(req.Worker, now)
	if co.failed != nil {
		http.Error(w, co.failed.Error(), http.StatusGone)
		return
	}
	resp := LeaseResponse{LeaseSeconds: co.cfg.LeaseTimeout.Seconds(), Done: co.pending == 0}
	for i := range co.state {
		s := &co.state[i]
		if s.status == statusDone || (s.status == statusLeased && now.Before(s.deadline)) {
			continue
		}
		// Pending, or an expired lease: hand it out (again). Work is
		// stolen, not reassigned — whoever asks first gets it. The
		// expiry is charged to the worker that lost the point (this is
		// the one place expiry is observable — a lease that expires and
		// is then submitted anyway was never stolen).
		if s.status == statusLeased {
			co.mExpired.With(s.worker).Inc()
			// The lost attempt's grant span closes here, stolen. The
			// recorder write is buffer-free but fsync-free, so holding
			// mu across it costs microseconds, not a disk flush.
			_ = co.spans.Record(co.grantSpanLocked(i, s, now, obs.SpanStolen,
				map[string]any{"stolen_by": req.Worker}))
		}
		co.mLeases.With(req.Worker).Inc()
		s.status = statusLeased
		s.worker = req.Worker
		s.deadline = now.Add(co.cfg.LeaseTimeout)
		s.grantedAt = now
		s.attempts++
		resp.Points = []farm.ShardPoint{co.comp.Descriptor(i)}
		resp.Attempts = []int{s.attempts}
		break
	}
	writeJSON(w, resp)
}

// grantSpanLocked builds the span describing point i's current lease
// attempt, ending at end with the given status (callers hold mu).
func (co *Coordinator) grantSpanLocked(i int, s *pointState, end time.Time, status string, args map[string]any) obs.Span {
	a := map[string]any{"worker": s.worker, "label": co.comp.Label(i)}
	for k, v := range args {
		a[k] = v
	}
	return obs.Span{
		ID:      obs.SpanID(co.fp, i, s.attempts, "grant"),
		Point:   i,
		Attempt: s.attempts,
		Phase:   "grant",
		Status:  status,
		Start:   s.grantedAt.Sub(co.start).Seconds(),
		End:     end.Sub(co.start).Seconds(),
		Args:    a,
	}
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeSmall(w, r, "heartbeat", &req) {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.now()
	co.touchLocked(req.Worker, now)
	resp := HeartbeatResponse{}
	for _, i := range req.Indexes {
		if i < 0 || i >= len(co.state) {
			continue
		}
		s := &co.state[i]
		// Extend only a live lease still held by the caller; a lease
		// that expired may already be someone else's work.
		if s.status == statusLeased && s.worker == req.Worker && now.Before(s.deadline) {
			s.deadline = now.Add(co.cfg.LeaseTimeout)
		} else if s.status != statusDone {
			resp.Dropped = append(resp.Dropped, i)
		}
	}
	writeJSON(w, resp)
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Submit bodies stay unbounded: a point's Metrics carries per-disk
	// Utilization and Sim.PerDisk rows, so its size grows with the farm
	// and no fixed cap fits every grid.
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("coord: decoding submission: %v", err), http.StatusBadRequest)
		return
	}
	// Reject results that disagree with the compiled grid before taking
	// the queue lock — a diverged worker build must fail loudly, not
	// poison the report.
	if err := co.comp.CheckResult(req.Point); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	co.mu.Lock()
	co.touchLocked(req.Worker, co.now())
	if co.failed != nil {
		// Gone, not a retryable 5xx: the run is over, as for a lease.
		err := co.failed
		co.mu.Unlock()
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	if co.state[req.Point.Index].status == statusDone {
		// First write won. Any duplicate is byte-equal anyway (points
		// are pure functions of spec and seed), so discarding is safe.
		co.mDuplicates.With(req.Worker).Inc()
		co.spans.Event(req.Point.Index, co.state[req.Point.Index].attempts, "submit",
			obs.SpanDuplicate, map[string]any{"worker": req.Worker})
		resp := SubmitResponse{Duplicate: true, Done: co.pending == 0}
		co.mu.Unlock()
		writeJSON(w, resp)
		return
	}
	journal := co.journal
	co.mu.Unlock()

	// Journal outside the queue lock: a slow fsync must not stall
	// leases, heartbeats, or other submits' bookkeeping. Two concurrent
	// submits of the same point may both append — recovery dedups
	// (first write wins), so the extra line is harmless.
	if journal != nil {
		fsyncStart := time.Now()
		co.journalMu.Lock()
		err := journal.Append(req.Point)
		co.journalMu.Unlock()
		co.hFsync.Observe(time.Since(fsyncStart).Seconds())
		if err != nil {
			// The crash guarantee is gone; fail the run rather than
			// keep collecting results that would not survive a restart.
			// (Unless the grid already drained through other submits —
			// then every counted point is journaled and the result
			// stands; the retrying worker will land on Duplicate.)
			co.mu.Lock()
			if co.failed == nil && co.pending > 0 {
				co.failed = fmt.Errorf("coord: journaling point %d: %w", req.Point.Index, err)
				close(co.done)
			}
			co.mu.Unlock()
			http.Error(w, fmt.Sprintf("coord: journaling point %d: %v", req.Point.Index, err), http.StatusInternalServerError)
			return
		}
	}

	co.mu.Lock()
	if co.failed != nil {
		err := co.failed
		co.mu.Unlock()
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	s := &co.state[req.Point.Index]
	if s.status == statusDone {
		// Another submit of the same point won the fsync race.
		co.mDuplicates.With(req.Worker).Inc()
		resp := SubmitResponse{Duplicate: true, Done: co.pending == 0}
		co.mu.Unlock()
		writeJSON(w, resp)
		return
	}
	now := co.now()
	if dur := now.Sub(s.grantedAt).Seconds(); !s.grantedAt.IsZero() && dur >= 0 {
		co.hPoint.Observe(dur)
	}
	s.status = statusDone
	s.worker = req.Worker
	co.mSubmits.With(req.Worker).Inc()
	co.results[req.Point.Index] = req.Point
	co.pending--
	done := co.pending == 0
	if done {
		close(co.done)
	}
	// The winning attempt's grant span closes ok.
	_ = co.spans.Record(co.grantSpanLocked(req.Point.Index, s, now, obs.SpanOK, nil))
	co.mu.Unlock()
	writeJSON(w, SubmitResponse{Done: done})
}

// handleFail marks the run terminally failed on a worker's report of a
// point whose execution errored. A point that some other worker has
// meanwhile completed disproves the report (results are deterministic),
// so it is ignored; otherwise re-leasing the point could only fail
// every future worker the same way, and the queue would outlive the
// pool.
func (co *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decodeSmall(w, r, "fail report", &req) {
		return
	}
	if req.Index < 0 || req.Index >= co.comp.NumPoints() {
		http.Error(w, fmt.Sprintf("coord: fail report index %d outside the %d-point grid", req.Index, co.comp.NumPoints()), http.StatusUnprocessableEntity)
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.touchLocked(req.Worker, co.now())
	if co.failed == nil && co.state[req.Index].status != statusDone {
		co.failed = fmt.Errorf("coord: point %d (%s) failed on worker %s: %s",
			req.Index, co.comp.Label(req.Index), req.Worker, req.Error)
		s := &co.state[req.Index]
		_ = co.spans.Record(co.grantSpanLocked(req.Index, s, co.now(), obs.SpanError,
			map[string]any{"error": req.Error, "worker": req.Worker}))
		close(co.done)
	}
	writeJSON(w, struct{}{})
}

// readHeaderTimeout bounds how long Serve's HTTP server waits for a
// client's request headers, so a stalled client cannot pin a
// connection.
const readHeaderTimeout = 10 * time.Second

// maxSmallBody bounds lease, heartbeat and fail request bodies: each
// carries a worker name and at most a worker's in-flight point
// indexes, orders of magnitude below this.
const maxSmallBody = 1 << 20

// decodeSmall decodes a bounded protocol body into v, answering 413
// when the body exceeds maxSmallBody and 400 when it does not parse.
// It reports whether the handler should go on.
func decodeSmall(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSmallBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("coord: decoding %s: %v", what, err), status)
	return false
}

// writeJSON renders a protocol response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Serve runs a coordinator to completion on one call: listen on addr,
// serve the protocol until the grid drains (or ctx is cancelled), shut
// the server down, and return the assembled result. The journal file —
// if configured — is always left on disk: on error so a restart
// resumes, and on success until the caller has persisted the returned
// result (the journal is its only durable copy until then; delete the
// file once the result is safe, as cmd/disksim does after printing the
// report).
func Serve(ctx context.Context, sweep farm.Sweep, seed int64, addr string, cfg Config) (*farm.SweepResult, error) {
	co, err := New(sweep, seed, cfg)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}
	srv := &http.Server{Handler: co.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	// A server that dies mid-run must fail Serve, not hang it: with the
	// accept loop gone no worker can submit, so Wait would block
	// forever. The derived context turns a server error into a wake-up.
	waitCtx, cancelWait := context.WithCancel(ctx)
	defer cancelWait()
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
			cancelWait()
		}
	}()
	res, err := co.Wait(waitCtx)
	if err == nil {
		// Linger: workers between lease polls when the last point landed
		// must read their Done from the protocol, not infer it from a
		// vanished listener. The coordinator's own config (validated in
		// New) carries the window.
		_ = sleep(ctx, co.cfg.Linger)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	select {
	case serr := <-serveErr:
		// Replace only the synthetic wake-up — Wait's cancellation
		// caused by the server's death (parent context intact). A
		// drained result or a terminal journal fault stands.
		if err != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			err = serr
		}
	default:
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

package storage

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/sim"
)

// Failure injection and rebuild traffic. Reliability rides the same
// barrier discipline as everything else in the sharded kernel: each
// disk's failure clock is a pure function of its own trajectory
// (accumulated start/stop cycles and powered-on hours race a per-disk
// seeded Exp(1) threshold — see disk.WearParams), and the runner
// checks the clocks only at global reliability boundaries, fixed
// multiples of CheckEvery from time zero, with every shard parked.
// A failure replaces the drive (fresh failure threshold) and injects
// rebuild traffic: one read of the lost disk's share on every
// surviving member of its redundancy group plus one write of the full
// contents on the replacement, submitted in ascending global disk
// order. After injection the requests are ordinary disk-local work, so
// the byte-identity argument of parallel.go is untouched: cross-disk
// interaction happens only at barriers, and each shard's event order
// remains the sequential order restricted to that shard at any worker
// count. Rebuild completions are recorded shard-locally and folded at
// the next boundary with commutative operations (count decrement,
// max of finish times), so the fold is independent of shard layout.

// ReliabilityConfig adds wear-driven disk failures and rebuild
// traffic to a run.
type ReliabilityConfig struct {
	// GroupSize is the redundancy-group width: disks [0..GroupSize),
	// [GroupSize..2·GroupSize), … form groups that can rebuild one
	// lost member from the survivors. A trailing group of one disk is
	// folded into its predecessor. Must be >= 2.
	GroupSize int
	// RebuildBytes, when positive, fixes the volume reconstructed per
	// failure; zero derives it from the failed disk's used capacity.
	RebuildBytes int64
	// CheckEvery is the failure-check period in simulated seconds
	// (default 3600). Failures are detected and rebuilds injected only
	// at multiples of this period, which is what keeps the schedule
	// identical at any worker count.
	CheckEvery float64
	// Wear is the spin-cycle wear model (zero fields default to the
	// reference drive's).
	Wear disk.WearParams
	// Seed seeds the per-disk failure clocks.
	Seed int64
}

// withDefaults resolves the config's zero values.
func (rc ReliabilityConfig) withDefaults() ReliabilityConfig {
	if rc.CheckEvery <= 0 {
		rc.CheckEvery = 3600
	}
	return rc
}

// validate rejects malformed reliability configs.
func (rc ReliabilityConfig) validate(numDisks int) error {
	if rc.GroupSize < 2 {
		return fmt.Errorf("storage: reliability group size %d must be >= 2", rc.GroupSize)
	}
	if numDisks < 2 {
		return fmt.Errorf("storage: reliability needs a farm of >= 2 disks, have %d", numDisks)
	}
	if rc.RebuildBytes < 0 {
		return fmt.Errorf("storage: negative rebuild volume %d", rc.RebuildBytes)
	}
	if math.IsNaN(rc.CheckEvery) || math.IsInf(rc.CheckEvery, 0) || rc.CheckEvery < 0 {
		return fmt.Errorf("storage: invalid reliability check period %v", rc.CheckEvery)
	}
	return rc.Wear.Validate()
}

// rebuildJob tracks one in-flight rebuild: the streams injected for
// one failure, counted down as their completions fold in at
// boundaries.
type rebuildJob struct {
	group       int
	failAt      float64
	outstanding int
	lastDone    float64
	done        bool
}

// relFin is one shard-local rebuild-stream completion, folded into
// its job at the next boundary.
type relFin struct {
	job int
	at  sim.Time
}

// relState is the runner-owned reliability ledger: per-disk failure
// clocks, redundancy-group membership, in-flight rebuilds, and the
// cumulative counters Results and Window report. Only the boundary
// code (shards parked) touches it.
type relState struct {
	cfg     ReliabilityConfig
	wear    disk.WearRates
	groupOf []int
	groups  [][]int
	fp      []*disk.FailureProcess

	rebuilding []int // per redundancy group: active rebuild count
	jobs       []*rebuildJob

	failures, dataLoss, rebuilds int
	rebuildTime                  float64
	rebuildBytes                 int64

	// Previous-boundary snapshots for per-window deltas.
	prevFailures, prevDataLoss, prevRebuilds int
	prevRebuildTime                          float64
}

// newRelState lays out redundancy groups over the farm and seeds the
// failure clocks.
func newRelState(cfg ReliabilityConfig, numDisks int) *relState {
	cfg = cfg.withDefaults()
	rel := &relState{
		cfg:     cfg,
		wear:    cfg.Wear.Rates(),
		groupOf: make([]int, numDisks),
		fp:      make([]*disk.FailureProcess, numDisks),
	}
	ngroups := numDisks / cfg.GroupSize
	if ngroups == 0 {
		ngroups = 1
	}
	for d := 0; d < numDisks; d++ {
		g := d / cfg.GroupSize
		if g >= ngroups {
			// The trailing remainder folds into the last full group so
			// every group has at least two members.
			g = ngroups - 1
		}
		rel.groupOf[d] = g
		rel.fp[d] = disk.NewFailureProcess(cfg.Seed, d)
	}
	rel.groups = make([][]int, ngroups)
	for d, g := range rel.groupOf {
		rel.groups[g] = append(rel.groups[g], d)
	}
	rel.rebuilding = make([]int, ngroups)
	return rel
}

// shardIdx returns the shard owning global disk d.
func (r *runner) shardIdx(d int) int {
	if r.shardOf == nil {
		return 0
	}
	return int(r.shardOf[d])
}

// foldRebuildFins merges the shards' rebuild-stream completions into
// their jobs and closes jobs whose last stream finished. Every
// per-fin operation is commutative (decrement, max), so the result is
// independent of how fins distribute across shards.
func (r *runner) foldRebuildFins() {
	rel := r.rel
	for _, m := range r.shards {
		for _, fin := range m.relFins {
			job := rel.jobs[fin.job]
			job.outstanding--
			if float64(fin.at) > job.lastDone {
				job.lastDone = float64(fin.at)
			}
		}
		m.relFins = m.relFins[:0]
	}
	for _, job := range rel.jobs {
		if !job.done && job.outstanding == 0 {
			job.done = true
			rel.rebuilds++
			rel.rebuildTime += job.lastDone - job.failAt
			rel.rebuilding[job.group]--
			if o := r.cfg.Obs; o != nil && o.Trace != nil {
				o.Trace.Emit(obs.TraceEvent{
					Phase: 'X', Track: "reliability",
					Name: fmt.Sprintf("rebuild group %d", job.group),
					At:   job.failAt, Dur: job.lastDone - job.failAt,
				})
			}
		}
	}
}

// reliabilityBoundary runs one failure check with every shard parked
// at simulated time now: fold finished rebuilds, then race each
// disk's accumulated hazard against its failure clock in ascending
// global disk order.
func (r *runner) reliabilityBoundary(now float64) {
	r.foldRebuildFins()
	rel := r.rel
	for d := 0; d < r.cfg.NumDisks; d++ {
		dk := r.shards[r.shardIdx(d)].localDisk(d)
		cycles := float64(dk.SpinUps())
		powered := now - dk.StateDurationAt(disk.Standby, now)
		h := rel.wear.Hazard(cycles, powered/3600)
		if rel.fp[d].Crossed(h) {
			r.failDisk(d, now, h)
		}
	}
}

// failDisk books one disk failure at a boundary and injects the
// rebuild streams. The replacement drive takes over the same slot
// with a fresh failure threshold; a failure in a group that is still
// rebuilding an earlier loss is a data-loss event (the group had no
// redundancy left) — the rebuild is injected anyway, modeling restore
// traffic.
func (r *runner) failDisk(d int, now, hazard float64) {
	rel := r.rel
	rel.failures++
	rel.fp[d].Replace(hazard)
	g := rel.groupOf[d]
	dataLoss := rel.rebuilding[g] > 0
	if dataLoss {
		rel.dataLoss++
	}
	if o := r.cfg.Obs; o != nil && o.Trace != nil {
		o.Trace.Emit(obs.TraceEvent{
			Phase: 'i', Track: "reliability",
			Name: fmt.Sprintf("disk %d failed", d), At: now,
			Args: map[string]any{"group": g, "dataLoss": dataLoss},
		})
	}
	vol := rel.cfg.RebuildBytes
	if vol == 0 {
		vol = r.cfg.paramsFor(d).CapacityBytes - r.freeBytes[d]
	}
	if vol <= 0 {
		// Nothing stored on the disk: the slot is replaced with no
		// rebuild traffic.
		return
	}
	members := rel.groups[g]
	survivors := len(members) - 1
	share := vol / int64(survivors)
	if share < 1 {
		share = 1
	}
	job := &rebuildJob{group: g, failAt: now}
	id := len(rel.jobs)
	rel.jobs = append(rel.jobs, job)
	rel.rebuilding[g]++
	// Ascending global disk order: each survivor contributes its share
	// as a read stream, then the replacement absorbs the full rewrite.
	// This is one fixed global submission order, so each shard sees the
	// sequential order restricted to its own disks.
	for _, s := range members {
		if s == d {
			continue
		}
		r.injectRebuild(s, share, id)
		job.outstanding++
		rel.rebuildBytes += share
	}
	r.injectRebuild(d, vol, id)
	job.outstanding++
	rel.rebuildBytes += vol
}

// injectRebuild submits one rebuild stream on disk target: a
// wake-everything request that spins the disk up if needed and
// occupies it for the transfer, charged to energy and — through queue
// occupancy — to the response time of the client requests behind it,
// but never to the response-time statistics themselves.
func (r *runner) injectRebuild(target int, size int64, jobID int) {
	m := r.shards[r.shardIdx(target)]
	req := m.allocReq()
	*req = disk.Request{
		FileID:  -1,
		Size:    size,
		Arrival: m.env.Now(),
		Done:    m.rebuildFn,
		Tag:     jobID,
	}
	m.localDisk(target).Submit(req)
}

// onRebuildDone records a rebuild-stream completion shard-locally;
// the runner folds it into the job at the next boundary.
func (m *machine) onRebuildDone(req *disk.Request, doneAt sim.Time) {
	m.relFins = append(m.relFins, relFin{job: req.Tag, at: doneAt})
	m.reqFree = append(m.reqFree, req)
}

// finishReliability closes the books at the horizon: fold the last
// completions, then charge rebuilds still in flight their degraded
// time so RebuildTime reads as total time spent rebuilding.
func (r *runner) finishReliability(horizon float64) {
	r.foldRebuildFins()
	for _, job := range r.rel.jobs {
		if !job.done {
			r.rel.rebuildTime += horizon - job.failAt
			if o := r.cfg.Obs; o != nil && o.Trace != nil {
				o.Trace.Emit(obs.TraceEvent{
					Phase: 'X', Track: "reliability",
					Name: fmt.Sprintf("rebuild group %d (unfinished)", job.group),
					At:   job.failAt, Dur: horizon - job.failAt,
				})
			}
		}
	}
}

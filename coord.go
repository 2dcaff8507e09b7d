package diskpack

import (
	"context"

	"diskpack/internal/coord"
	"diskpack/internal/farm"
)

// This file exports the work-stealing sweep coordinator
// (internal/coord) and the streaming point-result seam it is built on:
// serve any FarmSweep as an HTTP point queue (ServeSweep), join from
// any machine as a pull-based worker (WorkSweep), and get back a
// result byte-identical to the single-process RunSweep — with leases
// absorbing stragglers and dead workers, and an incremental journal
// bounding a coordinator crash to one point. cmd/disksim wires the
// same calls as -serve and -work.

// Coordination types (see internal/coord).
type (
	// SweepCoordinator owns a compiled grid's point queue and its HTTP
	// protocol; use it directly to embed the coordinator in your own
	// server (ServeSweep bundles the common listen-and-wait loop).
	SweepCoordinator = coord.Coordinator
	// SweepCoordConfig parameterizes a coordinator: lease timeout,
	// crash-journal path, post-drain linger.
	SweepCoordConfig = coord.Config
	// SweepWorkerConfig parameterizes a pull-based worker: name,
	// per-point parallelism, poll interval, transient-failure budget.
	SweepWorkerConfig = coord.WorkerConfig
	// SweepWorkerStats summarizes one worker's contribution.
	SweepWorkerStats = coord.WorkStats
	// FarmCompiledSweep is a sweep compiled against a seed: points
	// executable one at a time, foldable back into the exact RunSweep
	// result — the seam the coordinator, shards, and RunSweep share.
	FarmCompiledSweep = farm.CompiledSweep
)

// NewSweepCoordinator compiles the sweep into a point queue (recovering
// journaled points when the config names a journal) without starting a
// server — expose Handler() wherever you like and Wait for the result.
func NewSweepCoordinator(sweep FarmSweep, seed int64, cfg SweepCoordConfig) (*SweepCoordinator, error) {
	return coord.New(sweep, seed, cfg)
}

// ServeSweep runs the sweep as a work-stealing coordinator on addr
// until every point has been pulled, executed, and streamed back by
// WorkSweep workers (any number, joining or dying mid-run), then
// returns the result — byte-identical to RunSweep(sweep, seed, ...) of
// the same grid and seed. Cancelling the context aborts with the
// journal (if configured) intact for a restart. On success the journal
// is also left on disk — it is the result's only durable copy until
// the caller persists it; delete the file once the result is safe.
func ServeSweep(ctx context.Context, sweep FarmSweep, seed int64, addr string, cfg SweepCoordConfig) (*FarmSweepResult, error) {
	return coord.Serve(ctx, sweep, seed, addr, cfg)
}

// WorkSweep joins the coordinator at url as a pull-based worker and
// returns when the grid drains (or the context is cancelled — the
// worker's leases then simply expire and re-queue).
func WorkSweep(ctx context.Context, url string, cfg SweepWorkerConfig) (SweepWorkerStats, error) {
	return coord.Work(ctx, url, cfg)
}

// CompileSweep expands a sweep's grid against a seed for point-at-a-
// time execution: RunPoint(i) executes one point exactly as RunSweep
// would, and Assemble folds a complete result set back into the
// byte-identical RunSweep result.
func CompileSweep(sweep FarmSweep, seed int64) (*FarmCompiledSweep, error) {
	return farm.Compile(sweep, seed)
}

package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sharded sweeps: the distributed layer over the grid engine. A Sweep's
// compiled point list is a set of independent pure functions of
// (spec, seed), so a grid too large for one machine splits cleanly:
// Shard partitions the points into self-contained JSON manifests,
// RunShard executes one manifest anywhere, streaming each point into
// the shard's point journal (journal.go) — its result, and on a re-run
// its resume input — and Merge recombines the journals into the exact
// SweepResult a single-process RunSweep would have returned —
// byte-identical regardless of shard count, machine, or completion
// order. Custom axes carry Go functions and cannot be sharded, the same
// restriction persist.go puts on scenario files.

// ShardPoint names one grid point owned by a shard manifest.
type ShardPoint struct {
	// Index is the point's position in the compiled grid (Sweep.Points
	// order) — the key results are merged by.
	Index int
	// Label echoes the compiled point's label, an integrity check
	// against running a manifest on a diverged engine build.
	Label string
	// SeedOffset is added to the manifest seed when the point runs, so
	// a shard reproduces exactly the seeds the whole grid would use.
	SeedOffset int64 `json:",omitempty"`
}

// ShardManifest is one self-contained unit of a sharded sweep: the full
// grid declaration plus the subset of points this shard owns. A worker
// machine needs nothing else — no flags, no scenario registry entry.
type ShardManifest struct {
	// Index and Count place the shard in its family: Index in [0, Count).
	Index int
	Count int
	// Seed is the sweep seed every shard of the family must share.
	Seed int64
	// Sweep is the complete grid declaration (base spec, axes, selector).
	Sweep Sweep
	// Points is this shard's subset, ascending by Index. Round-robin
	// interleaving balances cost gradients along the fast axis; a shard
	// may be empty when Count exceeds the grid size.
	Points []ShardPoint
}

// Validate reports the first structural inconsistency. Agreement with
// the compiled grid is checked by RunShard, which compiles the points
// anyway.
func (m ShardManifest) Validate() error {
	if m.Count < 1 {
		return fmt.Errorf("farm: shard count %d must be >= 1", m.Count)
	}
	if m.Index < 0 || m.Index >= m.Count {
		return fmt.Errorf("farm: shard index %d outside [0,%d)", m.Index, m.Count)
	}
	if err := Shardable(m.Sweep); err != nil {
		return err
	}
	n := m.Sweep.NumPoints()
	last := -1
	for _, p := range m.Points {
		if p.Index <= last {
			return fmt.Errorf("farm: shard %d points out of order at index %d", m.Index, p.Index)
		}
		if p.Index >= n {
			return fmt.Errorf("farm: shard %d point index %d outside the %d-point grid", m.Index, p.Index, n)
		}
		last = p.Index
	}
	return nil
}

// Shardable reports whether the sweep can leave the process: valid and
// free of custom axes, whose Apply functions do not serialize. Shard,
// OpenPointJournal, and the coordinator (internal/coord) all enforce
// this one rule.
func Shardable(s Sweep) error {
	for _, a := range s.Axes {
		if a.Kind == AxisCustom {
			return fmt.Errorf("farm: custom axes cannot be sharded (the Apply function does not serialize)")
		}
	}
	return s.Validate()
}

// Shard partitions the sweep's compiled grid into n self-contained
// manifests, round-robin: point i goes to shard i mod n, so systematic
// cost gradients along an axis spread evenly across shards. Every
// manifest carries the whole sweep declaration; the union of the
// manifests' points is exactly the grid.
func Shard(sweep Sweep, seed int64, n int) ([]ShardManifest, error) {
	if n < 1 {
		return nil, fmt.Errorf("farm: shard count %d must be >= 1", n)
	}
	if err := Shardable(sweep); err != nil {
		return nil, err
	}
	points, err := sweep.Points()
	if err != nil {
		return nil, err
	}
	shards := make([]ShardManifest, n)
	for i := range shards {
		shards[i] = ShardManifest{Index: i, Count: n, Seed: seed, Sweep: sweep}
	}
	for i := range points {
		s := &shards[i%n]
		s.Points = append(s.Points, ShardPoint{
			Index:      i,
			Label:      points[i].Label,
			SeedOffset: points[i].SeedOffset,
		})
	}
	return shards, nil
}

// ShardPointResult is one completed grid point: Metrics for simulated
// sweeps, Alloc for plan-only ones. It is one line of a point journal
// and the payload a coordinator worker submits.
type ShardPointResult struct {
	Index   int
	Label   string
	Metrics *Metrics    `json:",omitempty"`
	Alloc   *Allocation `json:",omitempty"`
}

// complete reports whether the point carries the payload the sweep's
// mode calls for.
func (p ShardPointResult) complete(planOnly bool) bool {
	if planOnly {
		return p.Alloc != nil
	}
	return p.Metrics != nil
}

// RunShard executes the manifest's points with up to workers goroutines
// (0 = GOMAXPROCS), exactly as RunSweep would have run them: the same
// derived spec, the same seed + SeedOffset, and returns them in
// manifest order. done holds points computed by an earlier run — what
// OpenPointJournal recovered from the shard's journal — and they are
// reused instead of re-run, which is how an interrupted shard resumes;
// each must be a completed point the manifest owns. sink, when non-nil,
// receives each newly computed point the moment it completes (calls are
// serialized), which is how a shard journals its progress so a crash
// loses at most one point. Cancelling the context stops new points from
// starting — in-flight points finish and reach the sink first — and
// returns ctx.Err(). A sink error aborts the run. The manifest is
// cross-checked against the locally compiled grid so a stale manifest
// fails loudly rather than merging silently wrong numbers.
func RunShard(ctx context.Context, m ShardManifest, done []ShardPointResult, workers int, sink func(ShardPointResult) error) ([]ShardPointResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c, err := Compile(m.Sweep, m.Seed)
	if err != nil {
		return nil, err
	}
	slot := make(map[int]int, len(m.Points)) // grid index -> manifest position
	for i, sp := range m.Points {
		if err := c.Check(sp); err != nil {
			return nil, fmt.Errorf("farm: shard %d/%d: %w", m.Index, m.Count, err)
		}
		slot[sp.Index] = i
	}
	out := make([]ShardPointResult, len(m.Points))
	for _, pr := range done {
		i, owned := slot[pr.Index]
		if !owned {
			return nil, fmt.Errorf("farm: shard %d/%d does not own done point %d (%s) — a journal of another shard?", m.Index, m.Count, pr.Index, pr.Label)
		}
		if err := c.CheckResult(pr); err != nil {
			return nil, fmt.Errorf("farm: shard %d/%d: %w", m.Index, m.Count, err)
		}
		out[i] = pr
	}
	var sinkMu sync.Mutex
	err = parallelFor(ctx, len(m.Points), poolSize(workers), func(i int) error {
		if out[i].complete(m.Sweep.PlanOnly) {
			return nil
		}
		sp := m.Points[i]
		pr, err := c.RunPoint(sp.Index)
		if err != nil {
			return fmt.Errorf("farm: shard %d/%d point %s: %w", m.Index, m.Count, sp.Label, err)
		}
		out[i] = pr
		if sink != nil {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			if err := sink(pr); err != nil {
				return fmt.Errorf("farm: shard %d/%d streaming point %s: %w", m.Index, m.Count, sp.Label, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Merge recombines point journals — shard results, in any order, all
// written for one (sweep, seed) and together holding every grid point
// exactly once — into the SweepResult a single-process
// RunSweep(sweep, seed, workers) would have produced, byte for byte:
// points are recompiled from the journals' shared header, results
// slotted in by index, and the selector applied to the completed grid.
// A torn final line is ignored, as on resume; each error names the
// journal at fault.
func Merge(paths []string) (*SweepResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("farm: merge of zero point journals")
	}
	var (
		c    *CompiledSweep
		flat []ShardPointResult
	)
	from := make(map[int]string) // point index -> journal holding it
	for _, path := range paths {
		h, points, _, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		if h == nil {
			return nil, fmt.Errorf("farm: journal %s holds no header", path)
		}
		if c == nil {
			if c, err = Compile(h.Sweep, h.Seed); err != nil {
				return nil, fmt.Errorf("farm: journal %s: %w", path, err)
			}
		} else if !sameRun(*h, journalHeader{Seed: c.Seed(), Sweep: c.Sweep()}) {
			return nil, fmt.Errorf("farm: journal %s was written for a different sweep or seed than %s", path, paths[0])
		}
		// Check per journal before flattening: Assemble would catch
		// every defect too, but could not say which file carried it.
		for _, pr := range points {
			if err := c.CheckResult(pr); err != nil {
				return nil, fmt.Errorf("farm: journal %s: %w", path, err)
			}
			if prev, dup := from[pr.Index]; dup {
				return nil, fmt.Errorf("farm: point %d (%s) appears in both %s and %s", pr.Index, pr.Label, prev, path)
			}
			from[pr.Index] = path
			flat = append(flat, pr)
		}
	}
	return c.Assemble(flat)
}

// EncodeShard writes a manifest as indented JSON.
func EncodeShard(w io.Writer, m ShardManifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeShard reads and validates a shard manifest.
func DecodeShard(r io.Reader) (*ShardManifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m ShardManifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("farm: decoding shard manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

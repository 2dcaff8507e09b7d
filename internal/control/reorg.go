package control

import (
	"fmt"
	"math"
	"sort"

	"diskpack/internal/farm"
	"diskpack/internal/trace"
)

// The paper's semi-dynamic mode as a controller. The run is one
// continuous simulation windowed at the spec's epoch, so disks keep
// their spin state across reorganization points. Migration is charged
// at the boundary (Realloc's bill), not interleaved with foreground
// requests: the paper envisions reorganization at quiet periodic
// intervals.

const (
	// minRate floors a measured rate, so a file unobserved in a window
	// keeps a nonzero load estimate.
	minRate = 1e-8
	// deviationFactor is the measured/estimated rate ratio that marks a
	// file as mis-estimated (reorg-incremental).
	deviationFactor = 4
	// minLoadDelta is the smallest normalized load (fraction of one
	// disk's load budget) a deviation must move to justify migrating
	// the file; rate-ratio noise among cold files stays below it.
	minLoadDelta = 0.002
)

// Reorg re-places files by the rates measured over each closed window:
//
//   - reorg-full repacks every file with the spec's allocator, relabeled
//     so only genuinely re-placed files migrate (the repack is not
//     stable under rate perturbations, so it moves a lot);
//   - reorg-incremental applies the paper's Section 6 rule: only files
//     whose measured rate deviates from the one they were placed for
//     move, first-fit into disks with room, keeping the migration bill
//     proportional to the drift;
//   - reorg-adaptive replays the closed window under keep, incremental
//     and full on fresh disks (Actuator.WhatIf) and adopts the one
//     whose replay energy plus migration bill is lowest — the same
//     hindsight the repacking itself rests on. Ties go to the earlier
//     candidate, so a drift-free window migrates nothing.
type Reorg struct {
	kind Kind
	// est holds the per-file rates the live map was placed for — the
	// trace's a-priori rates until a move adopts measured ones.
	est []float64
}

// candidate is one proposed next map and the estimates it rests on.
type candidate struct {
	name   string
	assign []int
	est    []float64
}

// Observe implements Controller.
func (c *Reorg) Observe(w *farm.Window, act *farm.Actuator) ([]Action, error) {
	if why := pinned(act); why != "" {
		return []Action{{Kind: ActionRealloc, Plan: why}}, nil
	}
	files := act.Trace().Files
	if c.est == nil {
		c.est = make([]float64, len(files))
		for i, f := range files {
			c.est[i] = f.Rate
		}
	}
	win, rates := measure(w, act)
	var cands []candidate
	if c.kind == KindReorgAdaptive {
		cands = append(cands, candidate{"keep", act.Assign(), c.est})
	}
	if c.kind != KindReorgFull {
		next, est := incremental(act, c.est, rates)
		cands = append(cands, candidate{"incremental", next, est})
	}
	if c.kind != KindReorgIncremental {
		spec := act.Spec()
		spec.Workload = farm.TraceWorkload(win)
		next, disks, err := replan(act, spec)
		if err != nil {
			return nil, fmt.Errorf("control: full repack: %w", err)
		}
		switch {
		case next != nil:
			cands = append(cands, candidate{"full-repack", next, rates})
		case c.kind == KindReorgFull:
			return []Action{{Kind: ActionRealloc,
				Plan: fmt.Sprintf("full-repack needs %d disks, farm has %d", disks, act.FarmSize())}}, nil
		}
		// An adaptive full candidate that outgrows the farm would keep
		// the live map, scoring exactly as keep does; keep wins the tie.
	}
	best := cands[0]
	if len(cands) > 1 {
		var err error
		if best, err = cheapest(act, win, cands); err != nil {
			return nil, err
		}
	}
	c.est = best.est
	return []Action{{Kind: ActionRealloc, Assign: best.assign, Plan: best.name}}, nil
}

// pinned says why the live map must not be re-planned, or "" when it
// may be.
func pinned(act *farm.Actuator) string {
	if act.Spec().Alloc.Kind == farm.AllocExplicit {
		return "explicit allocation is pinned; nothing to re-plan"
	}
	for _, d := range act.Assign() {
		if d < 0 {
			// The write policy owns unplaced files; a re-plan that
			// covered them would place data that does not exist yet.
			return "live map has unplaced files; re-plan skipped"
		}
	}
	return ""
}

// measure cuts the closed window out of the run's trace — requests
// before w.End only — and gives its files the rates measured over it:
// request count over window length, floored at minRate. The window's
// file population is a copy, so the run's trace keeps its own rates.
func measure(w *farm.Window, act *farm.Actuator) (*trace.Trace, []float64) {
	win := act.Trace().Window(w.Start, w.End)
	rates := win.EmpiricalRates()
	win.Files = append([]trace.FileInfo(nil), win.Files...)
	for i := range rates {
		rates[i] = math.Max(rates[i], minRate)
		win.Files[i].Rate = rates[i]
	}
	return win, rates
}

// replan packs spec afresh at the run's seed and relabels the packing
// against the live map, so only genuinely re-placed files migrate. A
// packing that needs more disks than the farm has is refused: next is
// nil, and disks says how many it wanted.
func replan(act *farm.Actuator, spec farm.Spec) (next []int, disks int, err error) {
	plan, err := farm.Plan(spec, act.Seed())
	if err != nil {
		return nil, 0, err
	}
	if plan.DisksUsed > act.FarmSize() {
		return nil, plan.DisksUsed, nil
	}
	return RelabelForOverlap(act.Assign(), plan.Assign, act.Trace().Files, act.FarmSize()), plan.DisksUsed, nil
}

// incremental implements the paper's Section 6 migration rule: files
// whose measured rate deviates from their estimate by more than
// deviationFactor — and by enough load to matter — are pulled off
// their disks and re-placed first-fit, heaviest new load first, into
// disks with room for their bytes and their load; everything else stays
// put, as does a deviant that fits nowhere. Deviants adopt their
// measured rates as the new estimates.
func incremental(act *farm.Actuator, est, measured []float64) (next []int, newEst []float64) {
	spec := act.Spec()
	ref := spec.ReferenceParams()
	files := act.Trace().Files
	loadOf := func(i int, rate float64) float64 {
		return rate * ref.ServiceTime(files[i].Size) / spec.Alloc.CapL
	}
	next = act.Assign()
	free := act.FreeBytes()
	loads := make([]float64, len(free))
	for i, d := range next {
		loads[d] += loadOf(i, measured[i])
	}
	newEst = append([]float64(nil), est...)
	var deviants []int
	for i := range files {
		e, m := math.Max(est[i], minRate), measured[i]
		ratioDeviant := m > e*deviationFactor || m < e/deviationFactor
		if ratioDeviant && math.Abs(loadOf(i, m)-loadOf(i, e)) >= minLoadDelta {
			deviants = append(deviants, i)
			newEst[i] = m
		}
	}
	for _, i := range deviants {
		free[next[i]] += files[i].Size
		loads[next[i]] -= loadOf(i, measured[i])
	}
	sort.SliceStable(deviants, func(a, b int) bool {
		return loadOf(deviants[a], measured[deviants[a]]) > loadOf(deviants[b], measured[deviants[b]])
	})
	const eps = 1e-9
	for _, i := range deviants {
		l := loadOf(i, measured[i])
		placed := next[i] // nowhere better: stay put
		for d := range free {
			if free[d] >= files[i].Size && loads[d]+l <= 1+eps {
				placed = d
				break
			}
		}
		next[i] = placed
		free[placed] -= files[i].Size
		loads[placed] += l
	}
	return next, newEst
}

// cheapest scores each candidate by a what-if replay of the closed
// window on fresh disks plus its migration bill, and returns the
// lowest (ties to the earlier). cands[0] is keep: the window's own
// energy carries disk state over from earlier windows, so keep is
// replayed too, and a candidate that moves nothing shares its score.
func cheapest(act *farm.Actuator, win *trace.Trace, cands []candidate) (candidate, error) {
	replay := func(assign []int) (float64, error) {
		spec := act.Spec()
		spec.Workload = farm.TraceWorkload(win)
		spec.Alloc = farm.Explicit(assign)
		m, err := act.WhatIf(spec)
		if err != nil {
			return 0, fmt.Errorf("control: replaying the window: %w", err)
		}
		return m.Energy, nil
	}
	keep, err := replay(cands[0].assign)
	if err != nil {
		return candidate{}, err
	}
	best, bestScore := 0, keep
	for i, cand := range cands[1:] {
		moved, _, bill := act.MigrationBill(cand.assign)
		energy := keep
		if moved > 0 {
			if energy, err = replay(cand.assign); err != nil {
				return candidate{}, err
			}
		}
		if score := energy + bill; score < bestScore {
			best, bestScore = i+1, score
		}
	}
	return cands[best], nil
}

// RelabelForOverlap renames the disks of the new packing to maximize
// the bytes that stay in place: a greedy maximum-overlap matching
// between new and old disk contents. The packing itself (which files
// share a disk) is unchanged — only its disk numbering.
func RelabelForOverlap(old, new []int, files []trace.FileInfo, farm int) []int {
	type pair struct {
		newDisk, oldDisk int
		bytes            int64
	}
	overlap := make(map[[2]int]int64)
	maxNew := 0
	for i := range files {
		overlap[[2]int{new[i], old[i]}] += files[i].Size
		if new[i] > maxNew {
			maxNew = new[i]
		}
	}
	pairs := make([]pair, 0, len(overlap))
	for k, b := range overlap {
		pairs = append(pairs, pair{k[0], k[1], b})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].bytes != pairs[b].bytes {
			return pairs[a].bytes > pairs[b].bytes
		}
		if pairs[a].newDisk != pairs[b].newDisk {
			return pairs[a].newDisk < pairs[b].newDisk
		}
		return pairs[a].oldDisk < pairs[b].oldDisk
	})
	mapping := make([]int, maxNew+1)
	for i := range mapping {
		mapping[i] = -1
	}
	usedOld := make([]bool, farm)
	for _, p := range pairs {
		if mapping[p.newDisk] == -1 && p.oldDisk < farm && !usedOld[p.oldDisk] {
			mapping[p.newDisk] = p.oldDisk
			usedOld[p.oldDisk] = true
		}
	}
	// Unmatched new disks take any free old label.
	free := 0
	for nd := range mapping {
		if mapping[nd] != -1 {
			continue
		}
		for free < farm && usedOld[free] {
			free++
		}
		if free < farm {
			mapping[nd] = free
			usedOld[free] = true
		} else {
			mapping[nd] = nd // farm overflow guarded by caller
		}
	}
	out := make([]int, len(new))
	for i, d := range new {
		out[i] = mapping[d]
	}
	return out
}

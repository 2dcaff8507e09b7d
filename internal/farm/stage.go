package farm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
)

// Every executor runs a spec through the same two input stages before
// it simulates anything: BuildTrace at the point seed, then allocate at
// seed+1. prepare is that prologue, shared by Run, RunStream, Plan and
// CompiledSweep.RunPoint. Inside a compiled sweep the stages are
// memoized under exact keys, so points whose stage inputs are equal —
// every point of a threshold, cache or farm-size axis — share one
// synthesis and one packing instead of repeating them.

// stageKeys name a point's two stage outputs within its compiled sweep:
// equal keys mean equal stage inputs. Keys are dense IDs in order of
// first appearance.
type stageKeys struct{ trace, alloc int }

// traceInputs is everything BuildTrace reads: the workload spec — its
// config pointers compared by identity, since a point reads the config
// it points to — and the point seed.
type traceInputs struct {
	workload WorkloadSpec
	seed     int64
}

// allocInputs is everything allocate reads besides the trace, which it
// names by key (the trace key carries the seed allocate derives its
// own from): the alloc spec, with an explicit map compared by identity,
// and the reference drive items are normalized against. Fields compare
// with ==, so a NaN never matches, not even itself.
type allocInputs struct {
	trace     int
	kind      AllocKind
	capL      float64
	v, disks  int
	assign    *int // first element of Alloc.Assign, nil when empty
	assignLen int
	ref       disk.Params
}

// keyStages assigns every point its stage keys in one pass over the
// grid. Controlled points build their own stages through the control
// runner, so each gets keys no other point shares.
func keyStages(points []Point, seed int64) []stageKeys {
	traceIDs := make(map[traceInputs]int)
	allocIDs := make(map[allocInputs]int)
	var traces, allocs int // IDs handed out so far
	keys := make([]stageKeys, len(points))
	for i := range points {
		spec := &points[i].Spec
		if spec.Control != nil {
			keys[i] = stageKeys{trace: traces, alloc: allocs}
			traces++
			allocs++
			continue
		}
		tk := idOf(traceIDs, traceInputs{workload: spec.Workload, seed: seed + points[i].SeedOffset}, &traces)
		ai := allocInputs{
			trace:     tk,
			kind:      spec.Alloc.Kind,
			capL:      spec.Alloc.CapL,
			v:         spec.Alloc.V,
			disks:     spec.Alloc.Disks,
			assignLen: len(spec.Alloc.Assign),
			ref:       spec.referenceParams(),
		}
		if len(spec.Alloc.Assign) > 0 {
			ai.assign = &spec.Alloc.Assign[0]
		}
		keys[i] = stageKeys{trace: tk, alloc: idOf(allocIDs, ai, &allocs)}
	}
	return keys
}

// idOf returns k's ID in ids, handing out the next unused ID to a key
// not seen before.
func idOf[K comparable](ids map[K]int, k K, next *int) int {
	id, ok := ids[k]
	if !ok {
		id = *next
		*next++
		ids[k] = id
	}
	return id
}

// runOrder lists point indices grouped by stage keys — by trace, then
// by allocation, groups in order of first appearance — so consecutive
// points share what they can even when a seed axis varies fastest.
func runOrder(keys []stageKeys) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(keys[a].trace, keys[b].trace), cmp.Compare(keys[a].alloc, keys[b].alloc))
	})
	return order
}

// stageMemo holds one stage's outputs for a compiled sweep, by key. An
// output stays while a running point holds it; after its last holder
// lets go it is kept only until another output of the stage is let go,
// which is enough for the next point with the same key to reuse it. So
// the memo never holds more than one output beyond what running points
// hold. A nil memo builds every output fresh and keeps nothing.
type stageMemo[V any] struct {
	mu      sync.Mutex
	entries map[int]*stageEntry[V]
	idle    *stageEntry[V] // the released output kept for the next point
}

type stageEntry[V any] struct {
	key   int
	holds int           // running points holding the output
	built chan struct{} // closed once val and err are set
	val   V
	err   error
}

// acquire returns key's output, building it on first use; a point that
// asks while another builds it waits for that build. Each acquire must
// be paired with a release of the same key.
func (m *stageMemo[V]) acquire(key int, build func() (V, error)) (V, error) {
	if m == nil {
		return build()
	}
	m.mu.Lock()
	e := m.entries[key]
	if e != nil {
		e.holds++
		if m.idle == e {
			m.idle = nil
		}
		m.mu.Unlock()
		<-e.built
		return e.val, e.err
	}
	if m.entries == nil {
		m.entries = make(map[int]*stageEntry[V])
	}
	e = &stageEntry[V]{key: key, holds: 1, built: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()
	e.val, e.err = build()
	close(e.built)
	return e.val, e.err
}

// release drops one hold on key's output. The last holder's release
// keeps the output as the memo's idle entry, evicting the previous one.
func (m *stageMemo[V]) release(key int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e.holds--; e.holds > 0 {
		return
	}
	if m.idle != nil {
		delete(m.entries, m.idle.key)
	}
	m.idle = e
}

// pointStages is where prepare takes a point's stage outputs from: a
// compiled sweep's memos, under the point's keys. The zero value has no
// memos, so both stages are built fresh.
type pointStages struct {
	traces *stageMemo[*trace.Trace]
	allocs *stageMemo[*Allocation]
	keys   stageKeys
}

// release hands back the outputs a successful prepare took.
func (from pointStages) release() {
	from.allocs.release(from.keys.alloc)
	from.traces.release(from.keys.trace)
}

// prepare is the prologue of every executor: validate the spec, build
// its trace at seed, and allocate its files at seed+1. Outputs from a
// memo are shared with other points and read-only; on success the
// caller calls from.release() once it is done with them.
func prepare(spec Spec, seed int64, from pointStages) (*trace.Trace, *Allocation, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := from.traces.acquire(from.keys.trace, func() (*trace.Trace, error) {
		return BuildTrace(spec.Workload, seed)
	})
	if err != nil {
		from.traces.release(from.keys.trace)
		return nil, nil, fmt.Errorf("farm %s: workload: %w", spec.Name, err)
	}
	alloc, err := from.allocs.acquire(from.keys.alloc, func() (*Allocation, error) {
		return spec.allocate(tr, seed+1)
	})
	if err != nil {
		from.release()
		return nil, nil, fmt.Errorf("farm %s: allocation: %w", spec.Name, err)
	}
	return tr, alloc, nil
}

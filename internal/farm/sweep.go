package farm

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the parallel grid engine over Spec: a Sweep declares a
// base scenario plus one Axis per varied dimension, the cross-product
// is compiled to Points, and RunSweep fans the points across a bounded
// worker pool. Results are stored by point index, so the output is
// byte-identical regardless of worker count, and each point's seed is a
// pure function of its coordinate — the whole grid is as reproducible
// as a single farm.Run.

// AxisKind selects which Spec dimension an Axis varies.
type AxisKind int

const (
	// AxisSpinThreshold overrides the spin policy with FixedSpin(v)
	// (seconds) — the paper's Figures 5/6 x-axis.
	AxisSpinThreshold AxisKind = iota
	// AxisFarmSize sets Spec.FarmSize = int(v).
	AxisFarmSize
	// AxisCacheBytes sets Spec.CacheBytes = int64(v).
	AxisCacheBytes
	// AxisCapL sets the packing load constraint Alloc.CapL = v — the
	// paper's Figure 4 x-axis.
	AxisCapL
	// AxisPackV switches the allocation to Pack_Disks_v with group size
	// int(v) — the Section 5.1 ablation axis.
	AxisPackV
	// AxisArrivalRate sets the workload intensity: Synthetic.ArrivalRate
	// or Bursty.OnRate to v, or rescales NERSC.Duration so the request
	// rate becomes v. Invalid for trace workloads (fixed arrivals).
	AxisArrivalRate
	// AxisAllocKind sets Alloc.Kind = AllocKind(int(v)) — compare
	// allocation strategies on one workload.
	AxisAllocKind
	// AxisSeed leaves the spec alone and offsets the point seed by
	// int64(v) — independent replications for error bars.
	AxisSeed
	// AxisController varies the online controller: grid positions are
	// controller kind names carried in Names ("static" or "none" clears
	// Control for an open-loop point; any other name requires the base
	// spec to carry a Control for the epoch and budget). Serializable,
	// so controlled grids shard and coordinate like any other.
	AxisController
	// AxisExplicitAlloc varies the allocation over per-position explicit
	// file→disk maps carried in Assigns — how the reorg engine turns its
	// per-epoch candidate evaluation into a shardable sweep. Not
	// expressible from the CLI grammar (the maps do not fit a flag), but
	// fully serializable.
	AxisExplicitAlloc
	// AxisCustom applies a caller-provided function to the spec. Labels
	// must name each grid position and Apply must be non-nil. Custom
	// axes cannot be serialized to JSON.
	AxisCustom
)

// axisKindNames doubles as the String(), MarshalText, and ParseAxis
// vocabulary.
var axisKindNames = map[AxisKind]string{
	AxisSpinThreshold: "threshold",
	AxisFarmSize:      "farm",
	AxisCacheBytes:    "cache",
	AxisCapL:          "L",
	AxisPackV:         "v",
	AxisArrivalRate:   "rate",
	AxisAllocKind:     "alloc",
	AxisSeed:          "seed",
	AxisController:    "control",
	AxisExplicitAlloc: "assign",
	AxisCustom:        "custom",
}

// String names the kind (the -sweep flag vocabulary).
func (k AxisKind) String() string {
	if n, ok := axisKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("AxisKind(%d)", int(k))
}

// Axis varies one dimension of a sweep's base spec. Declarative kinds
// carry their grid in Values; AxisCustom carries it in Labels + Apply.
type Axis struct {
	// Name labels the axis in point labels; empty uses the kind's name.
	Name string `json:",omitempty"`
	Kind AxisKind
	// Values are the grid coordinates for the declarative kinds (for
	// AxisAllocKind they hold AllocKind numbers; ParseAxis accepts the
	// kind names).
	Values []float64 `json:",omitempty"`
	// Labels optionally name each grid position (required for
	// AxisCustom, where there are no Values).
	Labels []string `json:",omitempty"`
	// Names are the grid coordinates of an AxisController: controller
	// kind names, plus "static"/"none" for the open-loop point.
	Names []string `json:",omitempty"`
	// Assigns are the grid coordinates of an AxisExplicitAlloc: one
	// explicit file→disk map per position.
	Assigns [][]int `json:",omitempty"`
	// SeedStep offsets a point's seed by SeedStep × (index along this
	// axis), so one axis can carry independent workload draws while the
	// others stay comparable.
	SeedStep int64 `json:",omitempty"`
	// Apply mutates the spec for AxisCustom: i is the index along this
	// axis, coord the full point coordinate (ordered as Sweep.Axes) for
	// grids whose dimensions interact.
	Apply func(spec *Spec, i int, coord []int) error `json:"-"`
}

// size returns the number of grid positions on the axis.
func (a Axis) size() int {
	switch a.Kind {
	case AxisCustom:
		return len(a.Labels)
	case AxisController:
		return len(a.Names)
	case AxisExplicitAlloc:
		return len(a.Assigns)
	}
	return len(a.Values)
}

// name returns the label prefix.
func (a Axis) name() string {
	if a.Name != "" {
		return a.Name
	}
	return a.Kind.String()
}

// label renders the axis's contribution to a point label.
func (a Axis) label(i int) string {
	if i < len(a.Labels) {
		return a.Labels[i]
	}
	switch a.Kind {
	case AxisController:
		return fmt.Sprintf("%s=%s", a.name(), a.Names[i])
	case AxisExplicitAlloc:
		return fmt.Sprintf("%s=%d", a.name(), i)
	}
	v := a.Values[i]
	switch a.Kind {
	case AxisSpinThreshold:
		return fmt.Sprintf("%s=%gs", a.name(), v)
	case AxisAllocKind:
		return fmt.Sprintf("%s=%s", a.name(), AllocKind(int(v)))
	case AxisSeed:
		return fmt.Sprintf("%s=+%g", a.name(), v)
	default:
		return fmt.Sprintf("%s=%g", a.name(), v)
	}
}

// validate reports the first inconsistency.
func (a Axis) validate() error {
	switch a.Kind {
	case AxisCustom:
		if len(a.Labels) == 0 {
			return fmt.Errorf("farm: custom axis %q without labels", a.Name)
		}
		if a.Apply == nil {
			return fmt.Errorf("farm: custom axis %q without an Apply function", a.Name)
		}
		return nil
	case AxisController:
		if len(a.Names) == 0 {
			return fmt.Errorf("farm: controller axis %q has no controller names", a.name())
		}
		for i, n := range a.Names {
			if n == "" {
				return fmt.Errorf("farm: controller axis %q name %d is empty", a.name(), i)
			}
		}
		if len(a.Values) > 0 {
			return fmt.Errorf("farm: controller axis %q carries values (names go in Names)", a.name())
		}
		if len(a.Labels) > 0 && len(a.Labels) != len(a.Names) {
			return fmt.Errorf("farm: axis %q has %d labels for %d names", a.name(), len(a.Labels), len(a.Names))
		}
		return nil
	case AxisExplicitAlloc:
		if len(a.Assigns) == 0 {
			return fmt.Errorf("farm: explicit-alloc axis %q has no assignments", a.name())
		}
		for i, as := range a.Assigns {
			if len(as) == 0 {
				return fmt.Errorf("farm: explicit-alloc axis %q assignment %d is empty", a.name(), i)
			}
		}
		if len(a.Values) > 0 {
			return fmt.Errorf("farm: explicit-alloc axis %q carries values (maps go in Assigns)", a.name())
		}
		if len(a.Labels) > 0 && len(a.Labels) != len(a.Assigns) {
			return fmt.Errorf("farm: axis %q has %d labels for %d assignments", a.name(), len(a.Labels), len(a.Assigns))
		}
		return nil
	}
	if _, ok := axisKindNames[a.Kind]; !ok {
		return fmt.Errorf("farm: unknown axis kind %d", int(a.Kind))
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("farm: axis %q has no values", a.name())
	}
	for i, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("farm: axis %q value %d is %v", a.name(), i, v)
		}
	}
	if len(a.Labels) > 0 && len(a.Labels) != len(a.Values) {
		return fmt.Errorf("farm: axis %q has %d labels for %d values", a.name(), len(a.Labels), len(a.Values))
	}
	return nil
}

// apply mutates the spec for grid position i of the axis. Workload
// configs are copied before mutation so points never share state.
func (a Axis) apply(spec *Spec, i int, coord []int) error {
	switch a.Kind {
	case AxisCustom:
		return a.Apply(spec, i, coord)
	case AxisSpinThreshold:
		spec.Spin = FixedSpin(a.Values[i])
	case AxisFarmSize:
		spec.FarmSize = int(a.Values[i])
	case AxisCacheBytes:
		spec.CacheBytes = int64(a.Values[i])
	case AxisCapL:
		if spec.Alloc.Kind == AllocExplicit {
			return fmt.Errorf("farm: load-constraint axis has no effect on an explicit allocation")
		}
		spec.Alloc.CapL = a.Values[i]
	case AxisPackV:
		spec.Alloc.Kind = AllocPackV
		spec.Alloc.V = int(a.Values[i])
	case AxisAllocKind:
		spec.Alloc.Kind = AllocKind(int(a.Values[i]))
	case AxisSeed:
		// Seed offsets are handled during point compilation.
	case AxisArrivalRate:
		if err := setWorkloadRate(spec, a.Values[i]); err != nil {
			return err
		}
	case AxisController:
		name := a.Names[i]
		if name == "static" || name == "none" {
			spec.Control = nil
			break
		}
		if spec.Control == nil {
			return fmt.Errorf("farm: controller axis needs a base spec with Control (it carries the epoch and budget)")
		}
		cs := *spec.Control
		cs.Controller = name
		spec.Control = &cs
	case AxisExplicitAlloc:
		spec.Alloc = Explicit(a.Assigns[i])
	default:
		return fmt.Errorf("farm: unknown axis kind %d", int(a.Kind))
	}
	return nil
}

// SelectorKind names a sweep's operating-point selection rule.
type SelectorKind int

const (
	// SelectNone runs the grid without choosing a point (Best = -1).
	SelectNone SelectorKind = iota
	// SelectMinEnergySLO picks the lowest-energy point whose p95
	// response time stays within MaxP95 — the question an operator with
	// a latency budget actually asks.
	SelectMinEnergySLO
	// SelectKnee picks the knee of the energy-vs-mean-response curve:
	// the point farthest below the chord between the curve's extremes,
	// where marginal savings stop paying for marginal latency.
	SelectKnee
	// SelectPareto reports the Pareto front of (energy, mean response):
	// Front lists every non-dominated point; Best stays -1.
	SelectPareto
	// SelectMinEnergySLOAFR picks the lowest-energy point that meets
	// BOTH budgets: p95 response within MaxP95 and modeled annual
	// failure rate within MaxAFR — min energy under an SLO and a
	// durability budget. Aggressive spin-down points that win on energy
	// but burn start/stop cycles fail the AFR leg.
	SelectMinEnergySLOAFR
)

var selectorKindNames = map[SelectorKind]string{
	SelectNone:            "none",
	SelectMinEnergySLO:    "slo",
	SelectKnee:            "knee",
	SelectPareto:          "pareto",
	SelectMinEnergySLOAFR: "slo-afr",
}

// String names the kind (the -select flag vocabulary).
func (k SelectorKind) String() string {
	if n, ok := selectorKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("SelectorKind(%d)", int(k))
}

// Selector is a sweep's pluggable operating-point rule.
type Selector struct {
	Kind SelectorKind
	// MaxP95 is the response-time SLO in seconds (SelectMinEnergySLO,
	// SelectMinEnergySLOAFR).
	MaxP95 float64 `json:",omitempty"`
	// MaxAFR is the annual-failure-rate budget in (0, 1)
	// (SelectMinEnergySLOAFR).
	MaxAFR float64 `json:",omitempty"`
}

// validate reports the first inconsistency.
func (s Selector) validate() error {
	switch s.Kind {
	case SelectMinEnergySLO, SelectMinEnergySLOAFR:
		if s.MaxP95 <= 0 || math.IsNaN(s.MaxP95) {
			return fmt.Errorf("farm: sweep SLO %v must be positive", s.MaxP95)
		}
		if s.Kind == SelectMinEnergySLOAFR {
			if !(s.MaxAFR > 0 && s.MaxAFR < 1) || math.IsNaN(s.MaxAFR) {
				return fmt.Errorf("farm: AFR budget %v outside (0,1)", s.MaxAFR)
			}
		} else if s.MaxAFR != 0 {
			return fmt.Errorf("farm: selector %v does not take an AFR budget (MaxAFR %v set)", s.Kind, s.MaxAFR)
		}
		return nil
	case SelectNone, SelectKnee, SelectPareto:
		if s.MaxP95 != 0 {
			return fmt.Errorf("farm: selector %v does not take an SLO (MaxP95 %v set)", s.Kind, s.MaxP95)
		}
		if s.MaxAFR != 0 {
			return fmt.Errorf("farm: selector %v does not take an AFR budget (MaxAFR %v set)", s.Kind, s.MaxAFR)
		}
		return nil
	default:
		return fmt.Errorf("farm: unknown selector kind %d", int(s.Kind))
	}
}

// pick applies the rule to a completed grid. Points without metrics
// (plan-only sweeps) select nothing.
func (s Selector) pick(points []Point) (best int, front []int) {
	best = -1
	for i := range points {
		if points[i].Metrics == nil {
			return -1, nil
		}
	}
	if len(points) == 0 {
		return -1, nil
	}
	switch s.Kind {
	case SelectMinEnergySLO, SelectMinEnergySLOAFR:
		bestEnergy := math.Inf(1)
		for i := range points {
			m := points[i].Metrics
			if s.Kind == SelectMinEnergySLOAFR && m.AFR > s.MaxAFR {
				continue
			}
			if m.RespP95 <= s.MaxP95 && m.Energy < bestEnergy {
				bestEnergy = m.Energy
				best = i
			}
		}
		return best, nil
	case SelectKnee:
		return kneePoint(points), nil
	case SelectPareto:
		return -1, paretoFront(points)
	default:
		return -1, nil
	}
}

// kneePoint finds the point farthest from the chord joining the
// extremes of the (mean response, energy) trade-off curve. Degenerate
// grids (fewer than three points, or no spread on either dimension)
// fall back to the lowest-energy point.
func kneePoint(points []Point) int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return points[order[a]].Metrics.RespMean < points[order[b]].Metrics.RespMean
	})
	minE, maxE := math.Inf(1), math.Inf(-1)
	for i := range points {
		e := points[i].Metrics.Energy
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	first, last := points[order[0]].Metrics, points[order[len(order)-1]].Metrics
	respSpread := last.RespMean - first.RespMean
	energySpread := maxE - minE
	if len(points) < 3 || respSpread <= 0 || energySpread <= 0 {
		best := 0
		for i := range points {
			if points[i].Metrics.Energy < points[best].Metrics.Energy {
				best = i
			}
		}
		return best
	}
	// Normalize both dimensions to [0,1] and measure each point's
	// signed distance from the chord between the endpoints: positive
	// below the chord (less energy than the linear trade-off buys),
	// negative above. Only below-chord points are knees; a curve with
	// none — concave up, every extra second buying less than linear
	// savings — falls back to the lowest-energy point.
	norm := func(m *Metrics) (x, y float64) {
		return (m.RespMean - first.RespMean) / respSpread, (m.Energy - minE) / energySpread
	}
	x0, y0 := norm(first)
	x1, y1 := norm(last)
	dx, dy := x1-x0, y1-y0
	chord := math.Hypot(dx, dy)
	best, bestDist := -1, 0.0
	for _, i := range order {
		x, y := norm(points[i].Metrics)
		dist := (dy*x - dx*y + x1*y0 - y1*x0) / chord
		if dist > bestDist {
			best, bestDist = i, dist
		}
	}
	if best < 0 {
		for i := range points {
			if best < 0 || points[i].Metrics.Energy < points[best].Metrics.Energy {
				best = i
			}
		}
	}
	return best
}

// paretoFront returns the indices of points not dominated on (energy,
// mean response), in index order.
func paretoFront(points []Point) []int {
	var front []int
	for i := range points {
		mi := points[i].Metrics
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			mj := points[j].Metrics
			if mj.Energy <= mi.Energy && mj.RespMean <= mi.RespMean &&
				(mj.Energy < mi.Energy || mj.RespMean < mi.RespMean) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Sweep declares a grid of scenarios: a base Spec plus one Axis per
// varied dimension. The cross-product of the axes is the point set; the
// Selector picks the operating point(s) once every point has run.
type Sweep struct {
	// Name labels the sweep in errors and output.
	Name string `json:",omitempty"`
	// Base is the spec every point starts from. It need not validate on
	// its own — an axis may supply the missing dimension (e.g. CapL) —
	// but every compiled point must.
	Base Spec
	// Axes are applied in order; later axes see earlier axes' edits.
	Axes []Axis `json:",omitempty"`
	// Select is the operating-point rule (zero value: none).
	Select Selector `json:",omitempty"`
	// PlanOnly runs only the workload-synthesis and allocation stages
	// per point (filling Point.Alloc, not Point.Metrics) — packing
	// grids without paying for simulation.
	PlanOnly bool `json:",omitempty"`
}

// Validate checks the axes and selector. Point specs are validated
// individually when the sweep runs, because a base may be completed by
// its axes.
func (s Sweep) Validate() error {
	seen := make(map[AxisKind]bool, len(s.Axes))
	for i, a := range s.Axes {
		if err := a.validate(); err != nil {
			return fmt.Errorf("farm: sweep axis %d: %w", i, err)
		}
		// Two axes of one declarative kind would cross-label points the
		// later axis silently overwrites.
		if a.Kind != AxisCustom {
			if seen[a.Kind] {
				return fmt.Errorf("farm: duplicate %v axis", a.Kind)
			}
			seen[a.Kind] = true
		}
	}
	return s.Select.validate()
}

// NumPoints returns the grid size (1 for a sweep with no axes).
func (s Sweep) NumPoints() int {
	n := 1
	for _, a := range s.Axes {
		n *= a.size()
	}
	return n
}

// Point is one compiled grid position: its coordinate, the derived
// spec, and (after the sweep runs) its result.
type Point struct {
	// Coord locates the point along each axis, ordered as Sweep.Axes.
	Coord []int
	// Label joins the axis labels, e.g. "threshold=60s L=0.7".
	Label string
	// Spec is the base spec with every axis applied.
	Spec Spec
	// SeedOffset is added to the sweep seed for this point (the sum of
	// each axis's SeedStep×index plus any AxisSeed value).
	SeedOffset int64
	// Metrics is the simulation result (nil until the sweep runs, and
	// always nil for plan-only sweeps).
	Metrics *Metrics
	// Alloc is the allocation result of a plan-only sweep.
	Alloc *Allocation
}

// Points compiles the cross-product of the axes into specs. Points are
// ordered row-major: the last axis varies fastest.
func (s Sweep) Points() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.NumPoints()
	points := make([]Point, 0, n)
	coord := make([]int, len(s.Axes))
	for p := 0; p < n; p++ {
		spec := s.Base
		var offset int64
		labels := make([]string, 0, len(s.Axes))
		for ai, a := range s.Axes {
			i := coord[ai]
			if err := a.apply(&spec, i, coord); err != nil {
				return nil, fmt.Errorf("farm: sweep %s axis %s[%d]: %w", s.Name, a.name(), i, err)
			}
			offset += a.SeedStep * int64(i)
			if a.Kind == AxisSeed {
				offset += int64(a.Values[i])
			}
			labels = append(labels, a.label(i))
		}
		points = append(points, Point{
			Coord:      append([]int(nil), coord...),
			Label:      strings.Join(labels, " "),
			Spec:       spec,
			SeedOffset: offset,
		})
		for ai := len(coord) - 1; ai >= 0; ai-- {
			coord[ai]++
			if coord[ai] < s.Axes[ai].size() {
				break
			}
			coord[ai] = 0
		}
	}
	return points, nil
}

// SweepResult is a completed grid plus the selector's verdict.
type SweepResult struct {
	Sweep  Sweep
	Points []Point
	// Best indexes the selected operating point in Points, or -1 when
	// the selector chose nothing (no rule, infeasible SLO, plan-only).
	Best int
	// Front lists the Pareto-optimal indices (SelectPareto only).
	Front []int
}

// Reselect applies a different operating-point rule to a completed
// grid, replacing the sweep's own selector — how cmd/disksim applies
// -select after merging shard results.
func (r *SweepResult) Reselect(sel Selector) error {
	if err := sel.validate(); err != nil {
		return err
	}
	r.Sweep.Select = sel
	r.Best, r.Front = sel.pick(r.Points)
	return nil
}

// At returns the point at the given per-axis coordinate.
func (r *SweepResult) At(coord ...int) *Point {
	if len(coord) != len(r.Sweep.Axes) {
		panic(fmt.Sprintf("farm: At(%v) on a %d-axis sweep", coord, len(r.Sweep.Axes)))
	}
	idx := 0
	for ai, c := range coord {
		size := r.Sweep.Axes[ai].size()
		if c < 0 || c >= size {
			panic(fmt.Sprintf("farm: At coordinate %d out of range [0,%d) on axis %d", c, size, ai))
		}
		idx = idx*size + c
	}
	return &r.Points[idx]
}

// RunSweep compiles the sweep and fans its points across up to workers
// goroutines (0 means GOMAXPROCS). Each point runs farm.Run (or
// farm.Plan for plan-only sweeps) at seed + its SeedOffset. Points are
// taken grouped by their trace and allocation stage keys, so points
// that share input stages run back to back; results are stored by
// point index, so the output is byte-identical for any worker count.
// The first point error aborts the sweep.
func RunSweep(sweep Sweep, seed int64, workers int) (*SweepResult, error) {
	c, err := Compile(sweep, seed)
	if err != nil {
		return nil, err
	}
	order := runOrder(c.keys)
	results := make([]ShardPointResult, c.NumPoints())
	err = parallelFor(context.Background(), c.NumPoints(), poolSize(workers), func(k int) error {
		i := order[k]
		pr, err := c.RunPoint(i)
		if err != nil {
			return fmt.Errorf("farm: sweep %s point %s: %w", sweep.Name, c.Label(i), err)
		}
		results[i] = pr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.Assemble(results)
}

// poolSize resolves a worker-count flag: non-positive means one worker
// per core.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines
// and returns the first error (remaining work is skipped once an error
// is recorded). Cancelling the context stops new work from being
// grabbed — in-flight calls finish — and surfaces ctx.Err() unless an
// fn error came first.
func parallelFor(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	grab := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := grab()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// ParseAxis parses the -sweep flag grammar "dim=v1,v2,..." where dim is
// an AxisKind name (threshold, farm, cache, L, v, rate, alloc, seed,
// control) and values are numbers — except alloc, whose values are
// allocation kind names (pack, packv, random, firstfit, ffd, bestfit,
// chp), and control, whose values are controller names ("static" for
// the open-loop point).
func ParseAxis(s string) (Axis, error) {
	dim, list, ok := strings.Cut(s, "=")
	if !ok {
		return Axis{}, fmt.Errorf("farm: axis %q is not dim=v1,v2,...", s)
	}
	var kind AxisKind
	found := false
	for k, n := range axisKindNames {
		// Custom axes carry Go functions and explicit-alloc axes whole
		// file→disk maps; neither fits a flag.
		if n == dim && k != AxisCustom && k != AxisExplicitAlloc {
			kind, found = k, true
			break
		}
	}
	if !found {
		return Axis{}, fmt.Errorf("farm: unknown axis dimension %q (have threshold, farm, cache, L, v, rate, alloc, seed, control)", dim)
	}
	a := Axis{Kind: kind}
	for _, field := range strings.Split(list, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		switch kind {
		case AxisAllocKind:
			ak, err := parseAllocKind(field)
			if err != nil {
				return Axis{}, err
			}
			a.Values = append(a.Values, float64(ak))
		case AxisController:
			a.Names = append(a.Names, field)
		default:
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return Axis{}, fmt.Errorf("farm: axis %s value %q: %w", dim, field, err)
			}
			a.Values = append(a.Values, v)
		}
	}
	if err := a.validate(); err != nil {
		return Axis{}, err
	}
	return a, nil
}

// parseAllocKind resolves an AllocKind by its String() name.
func parseAllocKind(s string) (AllocKind, error) {
	for _, k := range []AllocKind{AllocPack, AllocPackV, AllocRandom, AllocFirstFit,
		AllocFirstFitDecreasing, AllocBestFit, AllocChangHwangPark, AllocExplicit} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("farm: unknown allocation kind %q", s)
}

// ParseSelector parses the -select flag grammar: "none", "knee",
// "pareto", "slo=SECONDS" (min energy with p95 response within the
// budget), or "slo=SECONDS,afr=RATE" (min energy under both the SLO
// and an annual-failure-rate budget).
func ParseSelector(s string) (Selector, error) {
	if v, ok := strings.CutPrefix(s, "slo="); ok {
		slo, afr, hasAFR := strings.Cut(v, ",afr=")
		p95, err := strconv.ParseFloat(slo, 64)
		if err != nil {
			return Selector{}, fmt.Errorf("farm: selector SLO %q: %w", slo, err)
		}
		sel := Selector{Kind: SelectMinEnergySLO, MaxP95: p95}
		if hasAFR {
			sel.Kind = SelectMinEnergySLOAFR
			sel.MaxAFR, err = strconv.ParseFloat(afr, 64)
			if err != nil {
				return Selector{}, fmt.Errorf("farm: selector AFR budget %q: %w", afr, err)
			}
		}
		return sel, sel.validate()
	}
	for k, n := range selectorKindNames {
		if n == s {
			if k == SelectMinEnergySLO || k == SelectMinEnergySLOAFR {
				return Selector{}, fmt.Errorf("farm: selector %s needs budgets: slo=SECONDS[,afr=RATE]", n)
			}
			return Selector{Kind: k}, nil
		}
	}
	return Selector{}, fmt.Errorf("farm: unknown selector %q (have none, knee, pareto, slo=SECONDS[,afr=RATE])", s)
}

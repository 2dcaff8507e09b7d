package farm

import (
	"fmt"
	"sort"
	"sync"
)

// Scenario is a named, documented entry of the scenario catalogue.
type Scenario struct {
	Name string
	// Doc is a one-line description shown by listings.
	Doc string
	// Spec is the scenario's simulation point.
	Spec Spec
	// Grid, when non-nil, runs a full declarative sweep instead of the
	// single Spec and selects an operating point with its selector — a
	// threshold search under an SLO, or a richer point set such as a
	// static-vs-controlled comparison.
	Grid *Sweep
}

// Result is the outcome of running a scenario: one Metrics per run
// (single-element without a grid) plus the grid's verdict.
type Result struct {
	Scenario Scenario
	// Labels[i] names Runs[i] (the point label for grid runs).
	Labels []string
	Runs   []*Metrics
	// Best indexes the operating point the grid's selector chose in
	// Runs, or −1 when it chose none (e.g. no run meets an SLO). Always
	// 0 without a grid.
	Best int
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Scenario{}
)

// Register adds a scenario to the catalogue. It panics on an empty or
// duplicate name or an invalid spec — registration happens at init time
// and a bad scenario is a programming error.
func Register(sc Scenario) {
	if sc.Name == "" {
		panic("farm: Register with empty scenario name")
	}
	if err := sc.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("farm: scenario %q: %v", sc.Name, err))
	}
	if sc.Grid != nil {
		if err := sc.Grid.Validate(); err != nil {
			panic(fmt.Sprintf("farm: scenario %q: %v", sc.Name, err))
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		panic(fmt.Sprintf("farm: duplicate scenario %q", sc.Name))
	}
	registry[sc.Name] = sc
}

// Scenarios returns the catalogue sorted by name.
func Scenarios() []Scenario {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// RunScenario executes the named scenario: a single Run without a
// grid, or one Run per grid point with the grid's operating-point
// selection.
func RunScenario(name string, seed int64) (*Result, error) {
	sc, ok := Lookup(name)
	if !ok {
		names := make([]string, 0)
		for _, s := range Scenarios() {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("farm: unknown scenario %q (have %v)", name, names)
	}
	return runScenario(sc, seed)
}

// runScenario executes an already-resolved scenario. Grid scenarios
// go through the grid engine: every point runs with
// the scenario's seed (so the workload draw is shared and points stay
// comparable), fanned across the machine's cores.
func runScenario(sc Scenario, seed int64) (*Result, error) {
	if sc.Grid == nil {
		m, err := Run(sc.Spec, seed)
		if err != nil {
			return nil, err
		}
		return &Result{Scenario: sc, Labels: []string{sc.Spec.Name}, Runs: []*Metrics{m}, Best: 0}, nil
	}
	sr, err := RunSweep(*sc.Grid, seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Best: sr.Best}
	for i := range sr.Points {
		res.Labels = append(res.Labels, sr.Points[i].Label)
		res.Runs = append(res.Runs, sr.Points[i].Metrics)
	}
	return res, nil
}

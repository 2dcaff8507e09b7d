package farm

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/policy"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
)

// The telemetry seam of the online control plane: RunStream executes a
// spec exactly as Run does — same trace, same allocation, same event
// order, so a do-nothing sink reproduces Run byte for byte — while
// emitting a Window snapshot every epoch and handing the sink an
// Actuator that can retune SpinTailAware group thresholds and swap the
// live file→disk map between windows. internal/control builds its
// controllers on this seam; nothing here decides anything.

// Window is one epoch's telemetry snapshot (see obs.Window for the
// schema: per-group arrivals, response quantiles, energy, spin
// transitions, idle-gap histogram).
type Window = storage.Window

// GroupWindow is one disk group's share of a Window.
type GroupWindow = storage.GroupWindow

// StreamSink observes one closed window and may actuate through act.
// Returning an error aborts the run.
type StreamSink func(w *Window, act *Actuator) error

// IdleGapBuckets and RespBuckets re-export the windows' histogram
// bucket bounds (see storage).
var (
	IdleGapBuckets = storage.IdleGapBuckets
	RespBuckets    = storage.RespBuckets
)

// Actuator is the actuation surface of a streamed run: what a
// controller may change between windows. It also carries the read-only
// context controllers plan against (the live spec, the file
// population, the farm size, the run seed).
type Actuator struct {
	ctl    *storage.RunControl
	tuners []*policy.Tunable // per group; nil entries are not tunable
	live   Spec              // spec as last rewritten (Control stripped)
	files  []trace.FileInfo
	farm   int
	seed   int64
}

// NumGroups returns the number of disk groups (1 for homogeneous
// farms).
func (a *Actuator) NumGroups() int { return len(a.tuners) }

// FarmSize returns the simulated farm size.
func (a *Actuator) FarmSize() int { return a.farm }

// Seed returns the run seed (what Plan must be called with for a
// population-consistent re-plan).
func (a *Actuator) Seed() int64 { return a.seed }

// Files returns the trace's file population.
func (a *Actuator) Files() []trace.FileInfo { return a.files }

// Spec returns the live spec: the run's spec with every re-spec
// applied so far (and Control stripped).
func (a *Actuator) Spec() Spec { return a.live }

// GroupThreshold returns group g's current spin-down threshold, with
// ok = false when the group's policy is not tunable (any spin kind but
// SpinTailAware).
func (a *Actuator) GroupThreshold(g int) (float64, bool) {
	if g < 0 || g >= len(a.tuners) || a.tuners[g] == nil {
		return 0, false
	}
	return a.tuners[g].T, true
}

// SetGroupThreshold retunes group g's spin-down threshold (clamped to
// the knob's range) and returns the value adopted. The new timeout
// applies from each disk's next idle-period arming. Only SpinTailAware
// groups are tunable.
func (a *Actuator) SetGroupThreshold(g int, seconds float64) (float64, error) {
	if g < 0 || g >= len(a.tuners) {
		return 0, fmt.Errorf("farm: group %d outside the %d-group farm", g, len(a.tuners))
	}
	if a.tuners[g] == nil {
		return 0, fmt.Errorf("farm: group %d spin policy is not tunable (use SpinTailAware)", g)
	}
	if seconds < 0 || math.IsNaN(seconds) {
		return 0, fmt.Errorf("farm: invalid threshold %v", seconds)
	}
	return a.tuners[g].Set(seconds), nil
}

// SetWorkloadRate rewrites the live spec's workload-intensity field —
// the same rewrite the rate sweep axis applies — so subsequent
// re-plans (Plan on Spec()) see the observed rate. It changes nothing
// about the arrivals already materialized; the trace is history.
func (a *Actuator) SetWorkloadRate(rate float64) error {
	return setWorkloadRate(&a.live, rate)
}

// Assign returns a copy of the live file→disk map.
func (a *Actuator) Assign() []int { return a.ctl.Assign() }

// Realloc swaps the live file→disk map, migrating changed files at a
// modeled energy cost (see storage.RunControl.Realloc).
func (a *Actuator) Realloc(assign []int) (moved int, movedBytes int64, err error) {
	return a.ctl.Realloc(assign)
}

// setWorkloadRate applies the AxisArrivalRate rewrite to a spec:
// Synthetic.ArrivalRate or Bursty.OnRate becomes v, or NERSC.Duration
// is rescaled so the request rate becomes v. Invalid for trace
// workloads, whose arrivals are fixed.
func setWorkloadRate(spec *Spec, v float64) error {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("farm: arrival rate %v must be positive", v)
	}
	switch spec.Workload.Kind {
	case WorkloadSynthetic:
		cfg := *spec.Workload.Synthetic
		cfg.ArrivalRate = v
		spec.Workload.Synthetic = &cfg
	case WorkloadBursty:
		cfg := *spec.Workload.Bursty
		cfg.OnRate = v
		spec.Workload.Bursty = &cfg
	case WorkloadNERSC:
		cfg := *spec.Workload.NERSC
		cfg.Duration = float64(cfg.NumRequests) / v
		spec.Workload.NERSC = &cfg
	default:
		return fmt.Errorf("farm: cannot set the rate of a %v workload", spec.Workload.Kind)
	}
	return nil
}

// WorkloadRate returns the spec's planned workload intensity in
// requests per second (the field SetWorkloadRate rewrites), or an
// error for trace workloads.
func WorkloadRate(spec Spec) (float64, error) {
	switch spec.Workload.Kind {
	case WorkloadSynthetic:
		return spec.Workload.Synthetic.ArrivalRate, nil
	case WorkloadBursty:
		return spec.Workload.Bursty.MeanRate(), nil
	case WorkloadNERSC:
		return float64(spec.Workload.NERSC.NumRequests) / spec.Workload.NERSC.Duration, nil
	default:
		return 0, fmt.Errorf("farm: a %v workload has no planned rate", spec.Workload.Kind)
	}
}

// GroupParams returns the drive model of each of the spec's disk
// groups — one default-drive group for homogeneous farms. This is the
// single source of truth controllers plan against (internal/control
// scores gap energies with it), matching exactly what RunStream wires
// into the simulated disks.
func GroupParams(s Spec) []disk.Params {
	if len(s.Groups) == 0 {
		return []disk.Params{disk.DefaultParams()}
	}
	out := make([]disk.Params, len(s.Groups))
	for g, grp := range s.Groups {
		out[g] = grp.Params
	}
	return out
}

// groupLayout expands the spec's groups into a disk→group map and the
// per-group drive parameters (one group of default drives for
// homogeneous farms).
func (s Spec) groupLayout(farmSize int) (groupOf []int, params []disk.Params) {
	groupOf = make([]int, farmSize)
	params = GroupParams(s)
	if len(s.Groups) == 0 {
		return groupOf, params
	}
	d := 0
	for g, grp := range s.Groups {
		for i := 0; i < grp.Count; i++ {
			groupOf[d] = g
			d++
		}
	}
	return groupOf, params
}

// streamSpinConfig is spinConfig plus the per-group tunables of a
// streamed run: SpinTailAware farms get one shared policy.Tunable per
// disk group (so one Set moves the whole group); every other spin kind
// keeps its static configuration and reports nil knobs.
func (s Spec) streamSpinConfig(perDisk []disk.Params, seed int64, groupOf []int, groupParams []disk.Params) (threshold float64, factory func(int) disk.SpinPolicy, tuners []*policy.Tunable, err error) {
	tuners = make([]*policy.Tunable, len(groupParams))
	if s.Spin.Kind != SpinTailAware {
		threshold, factory, err = s.spinConfig(perDisk, seed)
		return threshold, factory, tuners, err
	}
	for g := range tuners {
		tuners[g] = policy.NewTunable(groupParams[g], s.Spin.Threshold)
	}
	return 0, func(i int) disk.SpinPolicy { return tuners[groupOf[i]] }, tuners, nil
}

// RunStream executes the spec like Run while emitting a telemetry
// Window to sink every epoch simulated seconds, with an Actuator for
// mid-run control. It is the observe→actuate seam controlled runs are
// built on; with a nil or do-nothing sink it returns exactly Run's
// Metrics. Controlled specs must be stripped first — the controller
// interpretation lives in internal/control, not here.
func RunStream(spec Spec, seed int64, epoch float64, sink StreamSink) (*Metrics, error) {
	if spec.Control != nil {
		return nil, fmt.Errorf("farm %s: RunStream runs the telemetry seam only — strip Control (internal/control interprets it)", spec.Name)
	}
	tr, alloc, err := prepare(spec, seed, pointStages{})
	if err != nil {
		return nil, err
	}
	farmSize, perDisk, err := resolveFarmSize(spec, alloc)
	if err != nil {
		return nil, err
	}
	groupOf, groupParams := spec.groupLayout(farmSize)
	threshold, factory, tuners, err := spec.streamSpinConfig(perDisk, seed+2, groupOf, groupParams)
	if err != nil {
		return nil, err
	}
	act := &Actuator{
		tuners: tuners,
		live:   spec,
		files:  tr.Files,
		farm:   farmSize,
		seed:   seed,
	}
	res, err := storage.RunStreamParallel(tr, alloc.Assign, storage.Config{
		NumDisks:      farmSize,
		PerDisk:       perDisk,
		IdleThreshold: threshold,
		PolicyFactory: factory,
		CacheBytes:    spec.CacheBytes,
		WriteBestFit:  spec.WriteBestFit,
		Reliability:   spec.reliabilityConfig(seed),
		Obs:           CurrentRunObserver(),
	}, storage.StreamConfig{
		Epoch:   epoch,
		GroupOf: groupOf,
		OnWindow: func(w *Window, ctl *storage.RunControl) error {
			act.ctl = ctl
			for g := range w.Groups {
				if t, ok := act.GroupThreshold(g); ok {
					w.Groups[g].Threshold = t
				}
			}
			if sink == nil {
				return nil
			}
			return sink(w, act)
		},
	}, storage.ParallelConfig{Workers: SimWorkers(), Label: spec.Name})
	if err != nil {
		return nil, fmt.Errorf("farm %s: simulation: %w", spec.Name, err)
	}
	return assembleMetrics(spec, seed, farmSize, alloc, res), nil
}

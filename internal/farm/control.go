package farm

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/policy"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
)

// The telemetry seam of the online control plane: RunStream executes a
// spec through Run's body — same trace, same allocation, same event
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
// context controllers plan against (the live spec, the run's trace,
// the farm size, the run seed) and the run's observer.
type Actuator struct {
	ctl    *storage.RunControl
	tuners []*policy.Tunable // per group; nil unless SpinTailAware
	live   Spec              // spec as last rewritten (Control stripped)
	tr     *trace.Trace
	farm   int
	seed   int64
	o      *obs.RunObserver
}

// NumGroups returns the number of disk groups (1 for homogeneous
// farms).
func (a *Actuator) NumGroups() int { return max(len(a.live.Groups), 1) }

// FarmSize returns the simulated farm size.
func (a *Actuator) FarmSize() int { return a.farm }

// Seed returns the run seed (what Plan must be called with for a
// population-consistent re-plan).
func (a *Actuator) Seed() int64 { return a.seed }

// Trace returns the run's trace: its file population and the whole
// request stream. A controller observing window w reads only the
// requests before w.End — the rest has not happened yet.
func (a *Actuator) Trace() *trace.Trace { return a.tr }

// Spec returns the live spec: the run's spec with every re-spec
// applied so far (and Control stripped).
func (a *Actuator) Spec() Spec { return a.live }

// Observer returns the run's observability sinks (nil when the run is
// unobserved), for a sink to publish its own records to.
func (a *Actuator) Observer() *obs.RunObserver { return a.o }

// GroupThreshold returns group g's current spin-down threshold, with
// ok = false when the group's policy is not tunable (any spin kind but
// SpinTailAware).
func (a *Actuator) GroupThreshold(g int) (float64, bool) {
	if g < 0 || g >= len(a.tuners) {
		return 0, false
	}
	return a.tuners[g].T, true
}

// SetGroupThreshold retunes group g's spin-down threshold (clamped to
// the knob's range) and returns the value adopted. The new timeout
// applies from each disk's next idle-period arming. Only SpinTailAware
// groups are tunable.
func (a *Actuator) SetGroupThreshold(g int, seconds float64) (float64, error) {
	if g < 0 || g >= a.NumGroups() {
		return 0, fmt.Errorf("farm: group %d outside the %d-group farm", g, a.NumGroups())
	}
	if a.tuners == nil {
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

// FreeBytes returns each disk's remaining capacity under the live map.
func (a *Actuator) FreeBytes() []int64 { return a.ctl.FreeBytes() }

// MigrationBill prices a move from the live map to assign — the bill
// Realloc would charge (see storage.RunControl.MigrationBill).
func (a *Actuator) MigrationBill(assign []int) (moved int, movedBytes int64, energy float64) {
	return a.ctl.MigrationBill(assign)
}

// Realloc swaps the live file→disk map, migrating changed files at a
// modeled energy cost (see storage.RunControl.Realloc).
func (a *Actuator) Realloc(assign []int) (moved int, movedBytes int64, err error) {
	return a.ctl.Realloc(assign)
}

// WhatIf runs an open-loop spec at the run's seed on fresh disks, off
// the record: the replay publishes nothing to the run's observability
// sinks, so a controller can score a candidate without the run seeing
// a second simulation.
func (a *Actuator) WhatIf(spec Spec) (*Metrics, error) {
	if spec.Control != nil {
		return nil, fmt.Errorf("farm %s: a what-if replay runs open-loop — strip Control", spec.Name)
	}
	return simulate(spec, a.seed, pointStages{}, nil, 0, nil)
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
// scores gap energies with it), matching exactly what the simulation
// body wires into the simulated disks.
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

// RunStream executes the spec like Run while emitting a telemetry
// Window to sink every epoch simulated seconds, with an Actuator for
// mid-run control. It is the observe→actuate seam controllers are
// built on; with a nil or do-nothing sink it returns exactly Run's
// Metrics. Controlled specs must be stripped first — the controller
// interpretation lives in internal/control, not here.
func RunStream(spec Spec, seed int64, epoch float64, sink StreamSink) (*Metrics, error) {
	if spec.Control != nil {
		return nil, fmt.Errorf("farm %s: RunStream runs the telemetry seam only — strip Control (internal/control interprets it)", spec.Name)
	}
	if sink == nil {
		sink = func(*Window, *Actuator) error { return nil }
	}
	return simulate(spec, seed, pointStages{}, runObserver.Load(), epoch, sink)
}

package diskpack

import (
	"diskpack/internal/control"
	"diskpack/internal/farm"
)

// This file exports the online control plane (internal/control + the
// telemetry seam in internal/farm): run any FarmSpec closed-loop —
// windowed telemetry feeding a deterministic controller that retunes
// spin thresholds (tail-budget), re-plans the allocation against the
// observed rate (rate-respec), or reorganizes file placement from the
// rates measured over each window (the reorg-* kinds, the paper's
// semi-dynamic mode) at epoch boundaries. Controlled specs
// are pure data (FarmControlSpec), so they serialize, sweep, shard,
// and coordinate exactly like static ones; RunFarm, RunSweep, and the
// coordinator all execute them through the same registered runner.

// Control-plane types.
type (
	// ControlWindow is one epoch's telemetry snapshot: per-group
	// arrivals, response quantiles and histogram, energy, spin
	// transitions, standby time, and the idle-gap histogram.
	ControlWindow = farm.Window
	// ControlGroupWindow is one disk group's share of a window.
	ControlGroupWindow = farm.GroupWindow
	// ControllerKind enumerates the built-in controllers.
	ControllerKind = control.Kind
	// ControlAction is one actuation a controller requests.
	ControlAction = control.Action
	// ControlResult is a completed controlled run: metrics, windows,
	// and the action log.
	ControlResult = control.Result
	// FarmControlSpec is the serializable closed-loop declaration a
	// FarmSpec carries in its Control field.
	FarmControlSpec = farm.ControlSpec
	// FarmActuator is the actuation surface a streaming sink receives.
	FarmActuator = farm.Actuator
	// FarmStreamSink observes one telemetry window of a streamed run.
	FarmStreamSink = farm.StreamSink
)

// Controller kinds.
const (
	// ControllerTailBudget retunes each group's spin-down threshold
	// against the p95 budget.
	ControllerTailBudget = control.KindTailBudget
	// ControllerRateRespec re-plans the allocation when the observed
	// arrival rate drifts from the planned one.
	ControllerRateRespec = control.KindRateRespec
	// ControllerReorgFull repacks every file at the rates measured over
	// each window (the paper's Section 1 semi-dynamic mode).
	ControllerReorgFull = control.KindReorgFull
	// ControllerReorgIncremental migrates only the files whose measured
	// rate deviates from the placement-time estimate (Section 6).
	ControllerReorgIncremental = control.KindReorgIncremental
	// ControllerReorgAdaptive adopts, each window, whichever of keep,
	// incremental and full repack a what-if replay of the window plus
	// the migration bill scores cheapest.
	ControllerReorgAdaptive = control.KindReorgAdaptive
)

// Controller axis kind for sweeps (grid positions are controller
// names; "static" is the open-loop point).
const AxisController = farm.AxisController

// ParseControllerKind resolves a controller name ("tail-budget",
// "rate-respec", "reorg-full", "reorg-incremental", "reorg-adaptive").
func ParseControllerKind(s string) (ControllerKind, error) { return control.ParseKind(s) }

// RunControlled executes a controlled spec (Spec.Control != nil): one
// continuous simulation whose controller observes every epoch window
// and actuates at its boundary. Deterministic: same (spec, seed) ⇒
// byte-identical result.
func RunControlled(spec FarmSpec, seed int64) (*ControlResult, error) {
	return control.RunSpec(spec, seed)
}

// RunFarmStream is the raw telemetry seam: execute a (non-controlled)
// spec exactly as RunFarm would while emitting a ControlWindow every
// epoch simulated seconds to sink, which may actuate through the
// FarmActuator. With a do-nothing sink the metrics are byte-identical
// to RunFarm.
func RunFarmStream(spec FarmSpec, seed int64, epoch float64, sink FarmStreamSink) (*FarmMetrics, error) {
	return farm.RunStream(spec, seed, epoch, sink)
}

// ControlWindowIdleGapBuckets returns the telemetry windows' idle-gap
// histogram bucket bounds.
func ControlWindowIdleGapBuckets() []float64 { return farm.IdleGapBuckets() }

// ControlWindowRespBuckets returns the telemetry windows' response-time
// histogram bucket bounds.
func ControlWindowRespBuckets() []float64 { return farm.RespBuckets() }

package diskpack

import (
	"context"
	"io"

	"diskpack/internal/farm"
)

// This file exports the declarative scenario engine (internal/farm):
// describe a whole experiment point — farm layout, allocation strategy,
// spin-down policy, workload, cache — as one FarmSpec and run it with
// RunFarm, or run a catalogued scenario by name with RunScenario.

// Scenario engine types (see internal/farm).
type (
	// FarmSpec declares one simulation scenario.
	FarmSpec = farm.Spec
	// FarmDiskGroup is a run of identical drives in a (possibly
	// heterogeneous) farm.
	FarmDiskGroup = farm.DiskGroup
	// FarmWorkload selects the workload source of a spec.
	FarmWorkload = farm.WorkloadSpec
	// FarmAlloc selects the allocation strategy of a spec.
	FarmAlloc = farm.AllocSpec
	// FarmSpin selects the spin-down policy of a spec.
	FarmSpin = farm.SpinSpec
	// FarmMetrics is the unified result of one scenario run.
	FarmMetrics = farm.Metrics
	// FarmAllocation is the allocation-stage output of PlanFarm.
	FarmAllocation = farm.Allocation
	// FarmScenario is a named, documented spec in the catalogue.
	FarmScenario = farm.Scenario
	// FarmScenarioResult is the outcome of RunScenario.
	FarmScenarioResult = farm.Result
	// FarmSweep declares a parallel grid of scenarios: a base spec plus
	// one axis per varied dimension and a selection rule.
	FarmSweep = farm.Sweep
	// FarmAxis varies one spec dimension of a sweep.
	FarmAxis = farm.Axis
	// FarmSelector is a sweep's operating-point rule.
	FarmSelector = farm.Selector
	// FarmPoint is one compiled grid position with its result.
	FarmPoint = farm.Point
	// FarmSweepResult is a completed grid plus the selector's verdict.
	FarmSweepResult = farm.SweepResult
	// FarmFile is the JSON scenario document (one Spec or one Sweep).
	FarmFile = farm.File
	// FarmShard is one self-contained unit of a sharded sweep: the full
	// grid declaration plus the point subset one machine runs.
	FarmShard = farm.ShardManifest
)

// Workload-source constructors.
var (
	// TraceWorkload replays a pre-built trace.
	TraceWorkload = farm.TraceWorkload
	// SyntheticFarmWorkload generates the paper's Table 1 workload
	// (optionally diurnal via Synthetic.Diurnal).
	SyntheticFarmWorkload = farm.SyntheticWorkload
	// NERSCFarmWorkload synthesizes the Section 5.1 trace.
	NERSCFarmWorkload = farm.NERSCWorkload
	// BurstyFarmWorkload generates ON/OFF arrivals.
	BurstyFarmWorkload = farm.BurstyWorkload
)

// Allocation kinds.
const (
	AllocPack               = farm.AllocPack
	AllocPackV              = farm.AllocPackV
	AllocRandom             = farm.AllocRandom
	AllocFirstFit           = farm.AllocFirstFit
	AllocFirstFitDecreasing = farm.AllocFirstFitDecreasing
	AllocBestFit            = farm.AllocBestFit
	AllocChangHwangPark     = farm.AllocChangHwangPark
	AllocExplicit           = farm.AllocExplicit
)

// Spin-down policy kinds.
const (
	SpinBreakEven  = farm.SpinBreakEven
	SpinFixed      = farm.SpinFixed
	SpinNever      = farm.SpinNever
	SpinImmediate  = farm.SpinImmediate
	SpinAdaptive   = farm.SpinAdaptive
	SpinRandomized = farm.SpinRandomized
)

// Sweep axis kinds: which spec dimension an axis varies.
const (
	AxisSpinThreshold = farm.AxisSpinThreshold
	AxisFarmSize      = farm.AxisFarmSize
	AxisCacheBytes    = farm.AxisCacheBytes
	AxisCapL          = farm.AxisCapL
	AxisPackV         = farm.AxisPackV
	AxisArrivalRate   = farm.AxisArrivalRate
	AxisAllocKind     = farm.AxisAllocKind
	AxisSeed          = farm.AxisSeed
	AxisCustom        = farm.AxisCustom
)

// Sweep selector kinds: how a sweep picks its operating point.
const (
	SelectNone         = farm.SelectNone
	SelectMinEnergySLO = farm.SelectMinEnergySLO
	SelectKnee         = farm.SelectKnee
	SelectPareto       = farm.SelectPareto
)

// PackedAlloc returns the paper's default allocation (Pack_Disks) at
// load constraint L.
func PackedAlloc(capL float64) FarmAlloc { return farm.Packed(capL) }

// ExplicitAlloc wraps a precomputed file→disk map.
func ExplicitAlloc(assign []int) FarmAlloc { return farm.Explicit(assign) }

// FixedSpinPolicy returns a constant-threshold spin-down spec.
func FixedSpinPolicy(seconds float64) FarmSpin { return farm.FixedSpin(seconds) }

// RunFarm compiles a spec into a simulation and executes it. It is a
// pure function of (spec, seed): repeated calls return identical
// metrics.
func RunFarm(spec FarmSpec, seed int64) (*FarmMetrics, error) { return farm.Run(spec, seed) }

// PlanFarm runs only the workload-synthesis and allocation stages of a
// spec — no simulation. Use it to size a shared farm across a sweep
// before the real runs.
func PlanFarm(spec FarmSpec, seed int64) (*FarmAllocation, error) { return farm.Plan(spec, seed) }

// RegisterScenario adds a scenario to the catalogue (panics on
// duplicates or invalid specs — registration is init-time wiring).
func RegisterScenario(sc FarmScenario) { farm.Register(sc) }

// FarmScenarios lists the catalogue sorted by name.
func FarmScenarios() []FarmScenario { return farm.Scenarios() }

// RunScenario executes a catalogued scenario by name; grid scenarios
// run every point and select an operating point.
func RunScenario(name string, seed int64) (*FarmScenarioResult, error) {
	return farm.RunScenario(name, seed)
}

// RunSweep compiles a grid of specs (the cross-product of the sweep's
// axes over its base) and fans the points across up to workers
// goroutines (0 = GOMAXPROCS). Results are byte-identical for any
// worker count; the sweep's selector picks the operating point(s).
func RunSweep(sweep FarmSweep, seed int64, workers int) (*FarmSweepResult, error) {
	return farm.RunSweep(sweep, seed, workers)
}

// ShardSweep splits a sweep's compiled grid into n self-contained shard
// manifests (round-robin over the point list, each carrying the full
// sweep declaration and per-point seeds). Run each anywhere with
// RunSweepShard and recombine the journals with MergeSweep; the merged
// result is byte-identical to RunSweep(sweep, seed, workers) for any n.
func ShardSweep(sweep FarmSweep, seed int64, n int) ([]FarmShard, error) {
	return farm.Shard(sweep, seed, n)
}

// RunSweepShard executes one shard manifest with up to workers
// goroutines into the point journal at path, the shard's result: each
// point is appended and synced as it completes. A journal already at
// path is reopened and only the points it lacks run — the resume path.
func RunSweepShard(m FarmShard, path string, workers int) error {
	j, done, err := farm.OpenPointJournal(path, m.Sweep, m.Seed)
	if err != nil {
		return err
	}
	_, err = farm.RunShard(context.Background(), m, done, workers, j.Append)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// MergeSweep recombines shard result journals — in any order — into the
// exact SweepResult a single-process RunSweep would have produced,
// erroring on missing, duplicated, or mismatched points.
func MergeSweep(paths []string) (*FarmSweepResult, error) {
	return farm.Merge(paths)
}

// EncodeSweepShard writes a shard manifest as JSON; DecodeSweepShard
// reads one back. cmd/disksim produces and consumes these files via
// -shards/-run-shard.
func EncodeSweepShard(w io.Writer, m FarmShard) error { return farm.EncodeShard(w, m) }

// DecodeSweepShard reads and validates a shard manifest.
func DecodeSweepShard(r io.Reader) (*FarmShard, error) { return farm.DecodeShard(r) }

// ParseSweepAxis parses the "dim=v1,v2,..." axis grammar shared with
// cmd/disksim's -sweep flag.
func ParseSweepAxis(s string) (FarmAxis, error) { return farm.ParseAxis(s) }

// ParseSweepSelector parses the selector grammar shared with
// cmd/disksim's -select flag: "none", "knee", "pareto",
// "slo=SECONDS[,afr=RATE]".
func ParseSweepSelector(s string) (FarmSelector, error) { return farm.ParseSelector(s) }

// EncodeFarmFile writes a scenario document (one Spec or one Sweep) as
// JSON; DecodeFarmFile reads one back. cmd/disksim runs these files
// directly via -spec.
func EncodeFarmFile(w io.Writer, f FarmFile) error { return farm.EncodeFile(w, f) }

// DecodeFarmFile reads and validates a JSON scenario document.
func DecodeFarmFile(r io.Reader) (*FarmFile, error) { return farm.DecodeFile(r) }

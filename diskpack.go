// Package diskpack is a Go reproduction of "Analysis of Trade-Off
// Between Power Saving and Response Time in Disk Storage Systems"
// (Otoo, Rotem & Tsao, LBNL, 2009).
//
// The library allocates files to disks so that the fewest possible
// disks carry the workload — subject to a per-disk load (response-time)
// constraint — letting the remaining disks spin down into standby. The
// allocation problem is the two-dimensional vector packing problem
// (2DVPP); Pack implements the paper's O(n log n) approximation with
// the Theorem 1 guarantee C ≤ C*/(1−ρ) + 1.
//
// A discrete-event simulator of a multi-disk storage farm (power-state
// machine per drive, idleness-threshold spin-down, optional LRU front
// cache) measures the energy/response-time trade-off; workload
// generators reproduce the paper's synthetic Table 1 workload and a
// statistical clone of the NERSC 30-day read trace.
//
// Quick start:
//
//	wl := diskpack.Table1Workload(4, 1) // R = 4 req/s, seed 1
//	tr, _ := wl.Build()
//	items, _ := diskpack.ItemsFromTrace(tr, diskpack.DefaultDiskParams(), 0.7)
//	alloc, _ := diskpack.Pack(items)
//	res, _ := diskpack.Simulate(tr, alloc.DiskOf, diskpack.SimConfig{
//		NumDisks:      100,
//		IdleThreshold: diskpack.BreakEvenThreshold,
//	})
//	fmt.Printf("power %.0f W, mean response %.2f s\n", res.AvgPower, res.RespMean)
//
// Whole experiments are declared, not wired: a FarmSpec names the farm
// layout (including heterogeneous drive groups), allocation strategy,
// spin-down policy, workload, and cache, and RunFarm compiles it into a
// simulation returning one FarmMetrics — a pure function of
// (spec, seed). A scenario catalogue (FarmScenarios / RunScenario)
// ships ready-made points including diurnal, bursty, heterogeneous,
// and latency-SLO-sweep scenarios; run them with cmd/disksim
// -scenario.
//
// See the examples/ directory for complete programs and cmd/experiments
// for the harness that regenerates every table and figure of the paper.
package diskpack

import (
	"diskpack/internal/core"
	"diskpack/internal/disk"
	"diskpack/internal/exp"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// Packing types (see internal/core).
type (
	// Item is one file to allocate: size and load normalized to the
	// per-disk capacities, both in [0, 1].
	Item = core.Item
	// Assignment maps each item to a disk.
	Assignment = core.Assignment
)

// Pack allocates items with the paper's Pack_Disks algorithm
// (O(n log n), Theorem 1 bound from optimal).
func Pack(items []Item) (*Assignment, error) { return core.PackDisks(items) }

// PackGrouped allocates with the Pack_Disks_v variant: groups of v
// disks filled round-robin, de-clustering batches of similar files.
// The paper finds v = 4 ideal on the NERSC workload.
func PackGrouped(items []Item, v int) (*Assignment, error) { return core.PackDisksV(items, v) }

// Rho returns ρ = maxᵢ max(sᵢ, lᵢ), the quantity in the Theorem 1
// guarantee.
func Rho(items []Item) float64 { return core.Rho(items) }

// LowerBoundDisks returns ⌈max(Σs, Σl)⌉, a lower bound on the optimal
// disk count.
func LowerBoundDisks(items []Item) int { return core.LowerBoundDisks(items) }

// Disk model types (see internal/disk).
type (
	// DiskParams describes a drive's performance and power envelope.
	DiskParams = disk.Params
)

// DefaultDiskParams returns the Seagate ST3500630AS drive of the
// paper's Table 2.
func DefaultDiskParams() DiskParams { return disk.DefaultParams() }

// NeverSpinDown disables the spin-down policy when used as an idleness
// threshold.
var NeverSpinDown = disk.NeverSpinDown

// BreakEvenThreshold selects the drive's break-even idleness threshold
// (53.3 s for the default drive) when used as SimConfig.IdleThreshold.
const BreakEvenThreshold = storage.BreakEven

// Workload and trace types.
type (
	// Trace is a file population plus a timed request stream.
	Trace = trace.Trace
	// FileInfo describes one file (size, expected request rate).
	FileInfo = trace.FileInfo
	// Request is one whole-file read.
	Request = trace.Request
	// SyntheticWorkload generates the paper's Table 1 workload.
	SyntheticWorkload = workload.Synthetic
	// NERSCWorkload synthesizes the paper's Section 5.1 trace.
	NERSCWorkload = workload.NERSC
)

// Table1Workload returns the paper's synthetic workload configuration
// (40,000 files, Zipf θ = log 0.6/log 0.4, inverse-Zipf sizes) at the
// given Poisson arrival rate.
func Table1Workload(arrivalRate float64, seed int64) SyntheticWorkload {
	return workload.DefaultSynthetic(arrivalRate, seed)
}

// NERSCTrace returns the configuration of the NERSC-log synthesizer
// (88,631 files, 115,832 requests / 720 h, mean size 544 MB,
// size ⊥ frequency, diurnal arrivals).
func NERSCTrace(seed int64) NERSCWorkload { return workload.DefaultNERSC(seed) }

// ItemsFromTrace converts a trace's file population into packing items:
// sizes against the drive capacity and loads lᵢ = rateᵢ·serviceTimeᵢ
// against the load constraint capL (a fraction of the drive's transfer
// capability, the paper's L).
func ItemsFromTrace(tr *Trace, params DiskParams, capL float64) ([]Item, error) {
	sizes := make([]int64, len(tr.Files))
	rates := make([]float64, len(tr.Files))
	for i, f := range tr.Files {
		sizes[i] = f.Size
		rates[i] = f.Rate
	}
	return core.BuildItems(sizes, rates, params.ServiceTime, params.CapacityBytes, capL)
}

// Simulation types (see internal/storage).
type (
	// SimConfig parameterizes a farm simulation.
	SimConfig = storage.Config
	// SimResults reports energy, response times, and cache behaviour.
	SimResults = storage.Results
)

// Simulate runs the trace against a disk farm where file f resides on
// disk assign[f], returning energy and response-time measurements.
func Simulate(tr *Trace, assign []int, cfg SimConfig) (*SimResults, error) {
	return storage.Run(tr, assign, cfg)
}

// Experiment types (see internal/exp).
type (
	// ExperimentOptions configures scale, seed, and parallelism.
	ExperimentOptions = exp.Options
	// ResultTable is a named grid of experiment results.
	ResultTable = exp.Table
)

// RunExperiment regenerates the named table or figure of the paper
// ("table1", "table2", "fig2", "fig3", "fig23", "fig4", "fig5",
// "fig6", "fig56", "vsweep", "packquality", "scaling"), or one of the
// studies beyond it ("policies", "analysis", "reorg", "control",
// "reliability"), or "all".
func RunExperiment(name string, opts ExperimentOptions) ([]*ResultTable, error) {
	return exp.Run(name, opts)
}

// ExperimentNames lists the available experiments in canonical order.
func ExperimentNames() []string { return exp.Names() }

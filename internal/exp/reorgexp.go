package exp

import (
	"fmt"

	"diskpack/internal/control"
	"diskpack/internal/farm"
	"diskpack/internal/workload"
)

// Reorg runs the semi-dynamic reorganization experiment of the paper's
// Section 1: a NERSC-like workload whose hot set drifts over four
// phases, served by a Pack_Disks allocation packed for phase 0 and,
// one window per phase, either left alone (static) or re-placed by a
// reorg controller from the rates measured over the window just closed.
// The four variants are one sweep over the controller axis. Columns
// report power saving and response time over the whole run, with the
// migration bill charged to the saving, and the bill itself.
func Reorg(opts Options) (*Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	const phases = 4
	cfg := workload.DefaultNERSC(opts.Seed)
	cfg.NumFiles = opts.scaleCount(cfg.NumFiles, 400)
	cfg.NumRequests = opts.scaleCount(cfg.NumRequests, 800)
	cfg.Duration *= float64(cfg.NumRequests) / 115832
	tr, err := cfg.BuildDrifting(phases)
	if err != nil {
		return nil, err
	}
	base := farm.Spec{
		Name:     "reorg",
		Workload: farm.TraceWorkload(tr),
		Alloc:    farm.Packed(nerscCapL),
		Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven},
		Control:  &farm.ControlSpec{Controller: control.KindReorgFull.String(), Epoch: tr.Duration / phases},
	}
	plan, err := farm.Plan(base, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Headroom: repackings under measured rates often need a few more
	// disks than the a-priori packing.
	base.FarmSize = plan.DisksUsed + max(2, plan.DisksUsed/10)
	variants := []string{"static", control.KindReorgFull.String(), control.KindReorgIncremental.String(), control.KindReorgAdaptive.String()}
	res, err := farm.RunSweep(farm.Sweep{
		Name: "reorg",
		Base: base,
		Axes: []farm.Axis{{Kind: farm.AxisController, Names: variants}},
	}, opts.Seed, opts.workers())
	if err != nil {
		return nil, err
	}
	table := &Table{
		Name:    "reorg",
		Title:   fmt.Sprintf("Semi-dynamic reorganization under popularity drift (%d phases)", phases),
		XLabel:  "variant", // 0 = static, 1 = full repack, 2 = incremental, 3 = adaptive
		Columns: []string{"Saving", "Resp(s)", "MigratedGB", "MigrationJ"},
	}
	for i, p := range res.Points {
		m := p.Metrics
		table.AddRow(float64(i), m.PowerSavingRatio, m.RespMean,
			float64(m.Sim.MigratedBytes)/1e9, m.Sim.MigrationEnergy)
	}
	table.Notes = append(table.Notes,
		"variant 0 = static (packed for phase 0), 1 = reorg-full (repack each window), 2 = reorg-incremental (migrate only rate-deviant files, paper §6), 3 = reorg-adaptive (per-window what-if replay picks keep/incremental/full)")
	return table, nil
}

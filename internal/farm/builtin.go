package farm

import (
	"diskpack/internal/disk"
	"diskpack/internal/workload"
)

// miniSynthetic is a Table 1 workload shrunk to n files with file sizes
// scaled by the same factor, preserving the paper's load profile (the
// same convention internal/exp uses for sub-scale runs).
func miniSynthetic(n int, rate float64) workload.Synthetic {
	cfg := workload.DefaultSynthetic(rate, 0)
	f := float64(n) / float64(cfg.NumFiles)
	cfg.NumFiles = n
	cfg.MinSize = int64(float64(cfg.MinSize) * f)
	if cfg.MinSize < disk.MB {
		cfg.MinSize = disk.MB
	}
	cfg.MaxSize = int64(float64(cfg.MaxSize) * f)
	if cfg.MaxSize < 2*cfg.MinSize {
		cfg.MaxSize = 2 * cfg.MinSize
	}
	return cfg
}

// miniNERSC is the Section 5.1 synthesizer shrunk to n files and m
// requests at the paper's arrival rate.
func miniNERSC(n, m int) workload.NERSC {
	cfg := workload.DefaultNERSC(0)
	cfg.NumFiles = n
	cfg.NumRequests = m
	cfg.Duration *= float64(m) / 115832
	return cfg
}

// miniBursty is the default ON/OFF workload with the mini file
// population, cut to duration seconds. Its 9-minute silences make
// every OFF period a spin-down opportunity — the densest source of
// start/stop cycles per simulated second, which is why the
// reliability scenarios build on it.
func miniBursty(duration float64) workload.Bursty {
	cfg := workload.DefaultBursty(2, 0)
	mini := miniSynthetic(2000, 2)
	cfg.NumFiles = mini.NumFiles
	cfg.MinSize = mini.MinSize
	cfg.MaxSize = mini.MaxSize
	cfg.Duration = duration
	return cfg
}

// The built-in catalogue. The first two points are paper miniatures;
// the remaining four are scenarios the hand-wired seed could not
// express: a heterogeneous farm, diurnal load, bursty ON/OFF arrivals,
// and a latency-SLO-constrained spin-down sweep.
func init() {
	Register(Scenario{
		Name: "paper-synth",
		Doc:  "Table 1 workload miniature: Pack_Disks at L=0.7, break-even spin-down, 20-disk farm",
		Spec: Spec{
			Name:     "paper-synth",
			FarmSize: 20,
			Workload: SyntheticWorkload(miniSynthetic(2000, 6)),
			Alloc:    Packed(0.7),
			Spin:     SpinSpec{Kind: SpinBreakEven},
		},
	})
	Register(Scenario{
		Name: "paper-nersc-cache",
		Doc:  "NERSC miniature at the paper's operating point: Pack_Disks_4, 16 GB LRU, 0.5 h threshold",
		Spec: Spec{
			Name:       "paper-nersc-cache",
			Workload:   NERSCWorkload(miniNERSC(8000, 10000)),
			Alloc:      AllocSpec{Kind: AllocPackV, CapL: 0.8, V: 4},
			Spin:       FixedSpin(0.5 * 3600),
			CacheBytes: 16 * disk.GB,
		},
	})
	Register(Scenario{
		Name: "hetero",
		Doc:  "Heterogeneous farm: 12 Table 2 drives + 12 eco 5400 rpm drives, packed hot-to-fast",
		Spec: Spec{
			Name: "hetero",
			Groups: []DiskGroup{
				{Count: 12, Params: disk.DefaultParams()},
				{Count: 12, Params: disk.EcoParams()},
			},
			Workload: SyntheticWorkload(miniSynthetic(2000, 6)),
			Alloc:    Packed(0.7),
			Spin:     SpinSpec{Kind: SpinBreakEven},
		},
	})
	Register(Scenario{
		Name: "diurnal",
		Doc:  "Two days of diurnally modulated load: quiet nights are where spin-down earns its keep",
		Spec: Spec{
			Name:     "diurnal",
			FarmSize: 20,
			Workload: SyntheticWorkload(func() workload.Synthetic {
				cfg := miniSynthetic(2000, 0.5)
				cfg.Duration = 2 * 86400
				cfg.Diurnal = workload.DefaultDiurnal()
				return cfg
			}()),
			Alloc: Packed(0.7),
			Spin:  SpinSpec{Kind: SpinBreakEven},
		},
	})
	Register(Scenario{
		Name: "bursty",
		Doc:  "ON/OFF arrivals (1 min bursts at 10x rate, 9 min silence): the adversary of fixed thresholds",
		Spec: Spec{
			Name:     "bursty",
			FarmSize: 20,
			Workload: BurstyWorkload(func() workload.Bursty {
				cfg := workload.DefaultBursty(2, 0)
				mini := miniSynthetic(2000, 2)
				cfg.NumFiles = mini.NumFiles
				cfg.MinSize = mini.MinSize
				cfg.MaxSize = mini.MaxSize
				cfg.Duration = 8000
				return cfg
			}()),
			// Pack against a tight load constraint: per-file loads are
			// computed from the long-run mean rate, but service must be
			// provisioned for the 10x in-burst rate — L=0.1 spreads the
			// traffic over enough spindles to absorb the bursts.
			Alloc: Packed(0.1),
			Spin:  SpinSpec{Kind: SpinBreakEven},
		},
	})
	sloBase := Spec{
		Name:     "slo-sweep",
		Workload: NERSCWorkload(miniNERSC(8000, 10000)),
		Alloc:    Packed(0.8),
		Spin:     SpinSpec{Kind: SpinBreakEven}, // overridden per sweep point
	}
	Register(Scenario{
		Name: "slo-sweep",
		Doc:  "Spin-down threshold sweep picking the cheapest point with p95 response <= 25 s",
		Spec: sloBase,
		Grid: &Sweep{
			Name:   "slo-sweep",
			Base:   sloBase,
			Axes:   []Axis{{Kind: AxisSpinThreshold, Values: []float64{30, 60, 120, 300, 900, 1800, 3600}}},
			Select: Selector{Kind: SelectMinEnergySLO, MaxP95: 25},
		},
	})
	Register(Scenario{
		Name: "failure-injection",
		Doc:  "Bursty farm under accelerated spin-cycle wear: disks fail, redundancy groups rebuild onto survivors",
		Spec: Spec{
			Name:     "failure-injection",
			FarmSize: 20,
			Workload: BurstyWorkload(miniBursty(8000)),
			Alloc:    Packed(0.1),
			Spin:     SpinSpec{Kind: SpinBreakEven},
			// Rated cycle life accelerated from 50,000 to 8 so the
			// ~13 OFF-period spin cycles of the run consume whole
			// drive lifetimes: most disks fail, exercising rebuild
			// reads on group survivors and the replacement write.
			Reliability: &ReliabilitySpec{
				GroupSize:  5,
				CheckEvery: 900,
				Wear:       &disk.WearParams{RatedCycles: 8, BaseAFR: 0.0034, CycleWear: 1},
			},
		},
	})
	Register(Scenario{
		Name: "reliability-sweep",
		Doc:  "Spin threshold vs drive life: cheapest point with p95 <= 30 s and modeled AFR <= 10%",
		Spec: Spec{
			Name:     "reliability-sweep",
			FarmSize: 20,
			Workload: BurstyWorkload(miniBursty(8000)),
			Alloc:    Packed(0.1),
			// The base point is the policy answer to the sweep's
			// finding: a break-even threshold capped at one
			// start/stop cycle per disk-day, trading a little energy
			// for staying inside the AFR budget.
			Spin: CycleCapSpin(0, 1),
			Reliability: &ReliabilitySpec{
				GroupSize:  5,
				CheckEvery: 900,
			},
		},
		Grid: &Sweep{
			Name: "reliability-sweep",
			Base: Spec{
				Name:        "reliability-sweep",
				FarmSize:    20,
				Workload:    BurstyWorkload(miniBursty(8000)),
				Alloc:       Packed(0.1),
				Spin:        SpinSpec{Kind: SpinBreakEven}, // overridden per sweep point
				Reliability: &ReliabilitySpec{GroupSize: 5, CheckEvery: 900},
			},
			Axes:   []Axis{{Kind: AxisSpinThreshold, Values: []float64{30, 120, 600, 1800}}},
			Select: Selector{Kind: SelectMinEnergySLOAFR, MaxP95: 30, MaxAFR: 0.10},
		},
	})
}

// Command disksim runs disk-farm simulations through the scenario
// engine (internal/farm): a registered scenario by name, an ad-hoc run
// assembled from a trace file plus allocation, spin-down, and cache
// flags, a JSON scenario file, or a parallel grid sweep over any of
// those bases.
//
// Usage:
//
//	disksim -scenarios                       # list the catalogue
//	disksim -scenario hetero                 # run a registered scenario
//	disksim -scenario slo-sweep -seed 7      # sweeps pick an operating point
//	disksim -trace nersc.trace -algo pack -L 0.7 -threshold 1800
//	disksim -trace synth.trace -algo random -disks 100 -threshold breakeven
//	disksim -trace nersc.trace -assign out.map -disks 96 -cache 16e9
//
// Grid sweeps cross -sweep axes over the base spec (the scenario or the
// ad-hoc flags) and fan the points across -workers goroutines:
//
//	disksim -trace nersc.trace -sweep threshold=60,300,1800 -select slo=25
//	disksim -scenario paper-synth -sweep threshold=30,300 -sweep farm=20,40 -select pareto
//	disksim -trace synth.trace -sweep L=0.5,0.6,0.7,0.8 -select knee
//
// The reliability axis rides the same machinery: failure-injection
// scenarios run like any other, -afr-budget upgrades an SLO selector
// to min-energy-under-SLO-and-AFR, and -cycle-cap bounds spin-down
// cycles per disk-day (open-loop, or as the tail-budget controller's
// cycle budget):
//
//	disksim -scenario failure-injection -seed 7
//	disksim -scenario reliability-sweep -afr-budget 0.05
//	disksim -scenario bursty -cycle-cap 2
//	disksim -scenario bursty -sweep threshold=30,600 -select slo=30,afr=0.1
//
// Scenario files round-trip the same specs as JSON, so grids run
// without recompiling:
//
//	disksim -trace nersc.trace -sweep threshold=60,1800 -spec-out grid.json
//	disksim -spec grid.json -seed 7
//
// Grids too large for one machine shard into self-contained JSON
// manifests, run anywhere, and merge back byte-identically (selectors
// apply post-merge; a re-run of -run-shard resumes, skipping points its
// result file already holds):
//
//	disksim -scenario paper-synth -sweep threshold=30,300 -shards 3 -shard-out grid/
//	disksim -run-shard grid/shard-000.json        # on any machine
//	disksim -merge grid/ -select knee
//
// Or skip static partitioning entirely: -serve turns the grid into a
// work-stealing coordinator and any number of -work machines join,
// leave, or die mid-run. Leases expire and re-queue, completed points
// journal to disk as they land, and the final report is byte-identical
// to the single-process run:
//
//	disksim -scenario paper-synth -sweep threshold=30,300 -serve :9931 -journal sweep.journal
//	disksim -work http://coordinator:9931 -workers 8     # on any machine, any time
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diskpack/internal/control"
	"diskpack/internal/coord"
	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/trace"
)

// axisFlags collects repeated -sweep flags.
type axisFlags []string

func (a *axisFlags) String() string { return strings.Join(*a, "; ") }
func (a *axisFlags) Set(s string) error {
	*a = append(*a, s)
	return nil
}

// gridUsage is appended to every -sweep/-select parse failure so a typo
// always surfaces the full vocabulary, whatever path it took in.
const gridUsage = `sweep axes (repeatable, -sweep dim=v1,v2,...):
  threshold  spin-down idleness threshold, seconds
  farm       farm size, disks
  cache      front LRU cache, bytes
  L          packing load constraint in (0,1]
  v          Pack_Disks_v group size
  rate       workload intensity, requests/s
  alloc      allocation strategy: pack, packv, random, firstfit, ffd, bestfit, chp
  seed       seed offset for independent replications
  control    online controller: tail-budget, rate-respec, static (base needs -control or a controlled scenario)
selectors (-select): none, knee, pareto, slo=SECONDS[,afr=RATE]`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disksim:", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind a testable seam: it parses args, writes
// human output to out, and returns an error instead of exiting — every
// failure path, flag parsing included, becomes a non-zero exit in main.
// The return is named so the deferred observability stop — which
// renders the trace file and flushes the telemetry log — can fail the
// run when a sink write fails.
func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("disksim", flag.ContinueOnError)
	var sweeps axisFlags
	var (
		scenario    = fs.String("scenario", "", "run a registered scenario by name (see -scenarios)")
		list        = fs.Bool("scenarios", false, "list registered scenarios and exit")
		tracePath   = fs.String("trace", "", "input trace file (ad-hoc mode)")
		assignIn    = fs.String("assign", "", "file→disk map (one disk per line); overrides -algo")
		algo        = fs.String("algo", "pack", "allocator when -assign is absent: pack, pack4, random, ffd, firstfit, bestfit, chp")
		capL        = fs.Float64("L", 0.7, "load constraint for packing")
		farmN       = fs.Int("disks", 0, "farm size (0 = as many as the allocation uses)")
		threshold   = fs.String("threshold", "breakeven", "idleness threshold in seconds, 'breakeven', 'never', 'immediate', 'adaptive', or 'randomized'")
		cacheB      = fs.Float64("cache", 0, "LRU cache bytes (0 = none; paper uses 16e9)")
		seed        = fs.Int64("seed", 1, "seed for random placement and randomized policies")
		workers     = fs.Int("workers", 0, "parallel sweep simulations (0 = GOMAXPROCS)")
		simWorkers  = fs.Int("sim-workers", 1, "shard each simulation across N worker goroutines (0 = GOMAXPROCS); results are identical at any value")
		selectS     = fs.String("select", "", "sweep operating-point rule: slo=SECONDS, knee, pareto (default none)")
		specIn      = fs.String("spec", "", "run a JSON scenario file (a Spec or a Sweep; see -spec-out)")
		specOut     = fs.String("spec-out", "", "write the assembled spec/sweep as JSON and exit")
		shards      = fs.Int("shards", 0, "split the grid into N shard manifests under -shard-out instead of running it")
		shardOut    = fs.String("shard-out", "", "directory for -shards manifests (created if missing)")
		runShard    = fs.String("run-shard", "", "execute one shard manifest file and write its result file")
		shardResult = fs.String("shard-result", "", "result file for -run-shard (default: manifest path with .result.json)")
		mergeDir    = fs.String("merge", "", "merge shard result files (*.result.json) from a directory and report the sweep")
		serveAddr   = fs.String("serve", "", "serve the grid as a work-stealing coordinator on ADDR (e.g. :9931) and report when it drains")
		workURL     = fs.String("work", "", "join a coordinator as a pull-based worker (URL, e.g. http://host:9931)")
		workerName  = fs.String("name", "", "worker name for -work (default <hostname>-<pid>)")
		journalPath = fs.String("journal", "", "coordinator crash journal for -serve: completed points append here; restart with the same flags to resume")
		leaseD      = fs.Duration("lease", time.Minute, "coordinator lease: how long a worker may hold a point without a heartbeat before it re-queues")
		batchN      = fs.Int("batch", 4, "coordinator batch: max points handed out per lease request (adaptively shrunk by observed point cost)")
		token       = fs.String("token", "", "shared secret for -serve/-work: workers must present it, mismatches get 401")
		obsOut      = fs.String("obs-out", "", "write this process's span log (JSONL) to FILE; for -serve, -work, and -run-shard (name them *.spans.jsonl and fold with -merge-trace)")
		mergeTrace  = fs.String("merge-trace", "", "fold the *.spans.jsonl span logs under DIR into one Chrome-trace JSON (to -trace-out FILE, default stdout; load in Perfetto)")
		controlName = fs.String("control", "", "run closed-loop under an online controller: tail-budget, rate-respec, or static to strip a scenario's controller")
		epochF      = fs.Float64("epoch", 0, "telemetry window length in seconds for -control (default: the scenario's, or 1800)")
		budgetF     = fs.Float64("budget", 0, "p95 response-time budget in seconds for -control tail-budget (default: the scenario's, or 20)")
		afrBudget   = fs.Float64("afr-budget", 0, "annual-failure-rate budget in (0,1): upgrades an slo= selector to min-energy-under-SLO-and-AFR")
		cycleCap    = fs.Float64("cycle-cap", 0, "spin-down cycles per disk-day: caps the base spin policy (with -control tail-budget, the controller's cycle budget)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a heap profile to FILE at exit (go tool pprof)")
		traceOut    = fs.String("trace-out", "", "write a single run's state timeline as Chrome-trace JSON to FILE (load in Perfetto)")
		telemOut    = fs.String("telemetry-out", "", "write a single run's per-window telemetry as JSONL to FILE")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus /metrics and /debug/pprof on ADDR (e.g. :9100) for the life of the run")
		verbose     = fs.Bool("v", false, "per-disk breakdown")
	)
	fs.Var(&sweeps, "sweep", "sweep axis dim=v1,v2,... (repeatable; dims: threshold, farm, cache, L, v, rate, alloc, seed, control)")
	// The FlagSet would print every parse error itself and main would
	// print it again; silence the FlagSet and report once (restoring
	// output for an explicit -h).
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}

	var visited []string
	fs.Visit(func(f *flag.Flag) { visited = append(visited, f.Name) })
	sort.Strings(visited)
	wasSet := func(name string) bool {
		for _, v := range visited {
			if v == name {
				return true
			}
		}
		return false
	}
	// onlyFlags rejects any explicitly-set flag outside the mode's
	// allowlist: a flag the mode would silently ignore must fail loudly
	// instead.
	onlyFlags := func(mode, reason string, allowed ...string) error {
		// Profiling composes with every mode — a worker or a merge is
		// as legitimate a profile target as a plain run. So do
		// -sim-workers (it only shards the simulations the mode runs,
		// never what they compute) and -metrics-addr (live metrics
		// observe whatever the mode executes).
		ok := map[string]bool{mode: true, "cpuprofile": true, "memprofile": true, "sim-workers": true, "metrics-addr": true}
		for _, a := range allowed {
			ok[a] = true
		}
		for _, name := range visited {
			if !ok[name] {
				return fmt.Errorf("-%s ignores -%s: %s", mode, name, reason)
			}
		}
		return nil
	}

	// Start profiling before mode dispatch so every mode is coverable;
	// the deferred stop flushes on every return path out of run(),
	// which includes the graceful-SIGINT returns of -serve/-work/
	// -run-shard (interruptContext turns the signal into a normal
	// return) and of obs-file runs (startObs turns the signal into a
	// window-boundary abort). Modes without that machinery get a
	// flush-and-exit handler from startProfiles itself.
	obsFiles := *traceOut != "" || *telemOut != ""
	gracefulMode := *serveAddr != "" || *workURL != "" || *runShard != "" || obsFiles
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, gracefulMode)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Parse the grid flags before any early return: a bad -sweep or
	// -select must fail the run even alongside -scenarios, not be
	// silently swallowed by an earlier exit path.
	axes := make([]farm.Axis, 0, len(sweeps))
	for _, s := range sweeps {
		ax, err := farm.ParseAxis(s)
		if err != nil {
			return fmt.Errorf("%w\n%s", err, gridUsage)
		}
		axes = append(axes, ax)
	}
	selector := farm.Selector{}
	if *selectS != "" {
		var err error
		if selector, err = farm.ParseSelector(*selectS); err != nil {
			return fmt.Errorf("%w\n%s", err, gridUsage)
		}
	}

	// Pool-size and coordinator knobs fail loudly on nonsense instead of
	// clamping or spinning: a negative pool would silently serialize, a
	// zero batch would make every lease empty.
	if *workers < 0 {
		return fmt.Errorf("-workers %d: valid values are >= 1 (or 0 for one worker per core)", *workers)
	}
	if *simWorkers < 0 {
		return fmt.Errorf("-sim-workers %d: valid values are >= 1 (or 0 for one worker per core)", *simWorkers)
	}
	// Effective for every simulation any mode runs from here on; the
	// kernel routes non-shardable runs (cache-fronted, unplaced writes)
	// to its sequential path on its own.
	farm.SetSimWorkers(*simWorkers)

	if *list {
		if err := onlyFlags("scenarios", "it only lists the catalogue"); err != nil {
			return err
		}
		listScenarios(out)
		return nil
	}

	if *shards < 0 {
		return fmt.Errorf("-shards %d must be >= 1", *shards)
	}
	if *mergeTrace != "" {
		if err := onlyFlags("merge-trace",
			"it only folds span logs into a trace file; it takes -trace-out",
			"trace-out"); err != nil {
			return err
		}
		return mergeTraceDir(*mergeTrace, *traceOut, out)
	}
	if *workURL != "" {
		if err := onlyFlags("work",
			"a worker pulls everything from the coordinator; it takes only -workers, -name, -token, and -obs-out",
			"workers", "name", "token", "obs-out"); err != nil {
			return err
		}
		return workSweep(*workURL, *workerName, *workers, *token, *obsOut, *metricsAddr, out)
	}
	// Like the coordinator knobs below, the worker's name must not
	// outlive its mode: silently ignored flags would look like they
	// took effect.
	if wasSet("name") {
		return fmt.Errorf("-name needs -work URL")
	}
	if wasSet("token") && *serveAddr == "" {
		return fmt.Errorf("-token needs -serve ADDR or -work URL")
	}
	if *obsOut != "" && *serveAddr == "" && *runShard == "" {
		return fmt.Errorf("-obs-out needs -serve ADDR, -work URL, or -run-shard FILE (single runs use -trace-out/-telemetry-out)")
	}
	if *serveAddr != "" {
		if *leaseD < time.Second {
			return fmt.Errorf("-lease %v: valid values are >= 1s (workers heartbeat at a third of the lease)", *leaseD)
		}
		if *batchN < 1 {
			return fmt.Errorf("-batch %d: valid values are >= 1", *batchN)
		}
		for _, conflict := range []struct {
			set  bool
			name string
			why  string
		}{
			{*shards > 0, "shards", "static manifests and a work-stealing pool are different distribution modes: pick one"},
			{*specOut != "", "spec-out", "-spec-out writes files and exits; -serve runs the grid"},
			{wasSet("workers"), "workers", "the -work machines run the points; size the pool there"},
		} {
			if conflict.set {
				return fmt.Errorf("-serve cannot be combined with -%s: %s", conflict.name, conflict.why)
			}
		}
	} else {
		// The coordinator knobs must not outlive their mode: silently
		// ignored flags would look like they took effect.
		for _, name := range []string{"journal", "lease", "batch"} {
			if wasSet(name) {
				return fmt.Errorf("-%s needs -serve ADDR", name)
			}
		}
	}
	if *runShard != "" {
		if err := onlyFlags("run-shard",
			"it takes only -shard-result, -workers, and -obs-out (the manifest carries the sweep and its seed)",
			"shard-result", "workers", "obs-out"); err != nil {
			return err
		}
		return runShardFile(*runShard, *shardResult, *workers, *obsOut, out)
	}
	if *mergeDir != "" {
		if err := onlyFlags("merge",
			"it takes only -select and -v (the result files carry the sweep and its seed)",
			"select", "v"); err != nil {
			return err
		}
		return mergeShards(*mergeDir, selector, *selectS != "", *verbose, out)
	}
	// The shard companion flags must not outlive their mode: without it
	// they would be silently ignored and the grid would run locally.
	if *shardOut != "" && *shards == 0 {
		return fmt.Errorf("-shard-out needs -shards N")
	}
	if *shardResult != "" {
		return fmt.Errorf("-shard-result needs -run-shard FILE")
	}
	if *shards > 0 && *specOut != "" {
		return fmt.Errorf("-shards and -spec-out both write files and exit: pick one")
	}

	// The trace and telemetry sinks record exactly one run; the
	// multi-run and write-and-exit modes must reject them loudly (the
	// onlyFlags modes — -work, -run-shard, -merge, -scenarios —
	// already did above; grids are rejected at hasGrid below).
	if obsFiles {
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{*serveAddr != "", "serve"},
			{*specOut != "", "spec-out"},
			{*shards > 0, "shards"},
		} {
			if conflict.set {
				return fmt.Errorf("-trace-out/-telemetry-out record a single run: they cannot be combined with -%s", conflict.name)
			}
		}
	}
	// Observability starts before mode dispatch — like profiling — so
	// -metrics-addr serves whatever the mode runs; the deferred stop
	// renders the trace file and flushes the telemetry log on every
	// return path, the SIGINT abort included.
	ob, err := startObs(*traceOut, *telemOut, *metricsAddr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := ob.stop(); serr != nil && retErr == nil {
			retErr = serr
		}
	}()

	controlFlags := *controlName != "" || wasSet("epoch") || wasSet("budget")
	relFlags := wasSet("afr-budget") || wasSet("cycle-cap")
	if wasSet("afr-budget") && !(*afrBudget > 0 && *afrBudget < 1) {
		return fmt.Errorf("-afr-budget %v: the annual failure rate budget must be in (0,1)", *afrBudget)
	}
	if wasSet("cycle-cap") && !(*cycleCap > 0 && !math.IsInf(*cycleCap, 0)) {
		return fmt.Errorf("-cycle-cap %v: the cycle budget must be a positive number of cycles per disk-day", *cycleCap)
	}

	if *specIn != "" {
		if len(axes) > 0 || *selectS != "" || *specOut != "" || controlFlags || relFlags {
			return fmt.Errorf("-sweep/-select/-spec-out/-control/-afr-budget/-cycle-cap cannot be combined with -spec (edit the file instead)")
		}
		f, err := os.Open(*specIn)
		if err != nil {
			return err
		}
		doc, err := farm.DecodeFile(f)
		f.Close()
		if err != nil {
			return err
		}
		if *shards > 0 {
			if doc.Sweep == nil {
				return fmt.Errorf("-shards needs a grid: %s holds a single Spec, not a Sweep", *specIn)
			}
			return writeShards(*doc.Sweep, *seed, *shards, *shardOut, out)
		}
		if *serveAddr != "" {
			if doc.Sweep == nil {
				return fmt.Errorf("-serve needs a grid: %s holds a single Spec, not a Sweep", *specIn)
			}
			return serveSweep(out, *doc.Sweep, *seed, *serveAddr, *journalPath, *leaseD, *batchN, *token, *obsOut, *verbose)
		}
		if doc.Sweep != nil {
			if obsFiles {
				return fmt.Errorf("-trace-out/-telemetry-out record a single run: %s holds a Sweep, not a Spec", *specIn)
			}
			return runSweep(out, *doc.Sweep, *seed, *workers, *verbose)
		}
		if obsFiles {
			return runObserved(out, ob, *doc.Spec, *seed, "", *verbose)
		}
		m, err := farm.Run(*doc.Spec, *seed)
		if err != nil {
			return err
		}
		printMetrics(out, m, "", doc.Spec.CacheBytes > 0, *verbose)
		return nil
	}

	// Resolve the base spec: a registered scenario or the ad-hoc flags.
	// gridBase carries a grid scenario's full sweep (richer than base +
	// axes can express, e.g. static-vs-controlled's policy axis).
	var base farm.Spec
	var gridBase *farm.Sweep
	switch {
	case *scenario != "":
		sc, ok := farm.Lookup(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (use -scenarios to list)", *scenario)
		}
		if sc.Grid != nil {
			if controlFlags {
				return fmt.Errorf("-control cannot override scenario %s: its grid fixes each point's policy", sc.Name)
			}
			if wasSet("cycle-cap") {
				return fmt.Errorf("-cycle-cap cannot override scenario %s: its grid fixes each point's policy (use -afr-budget to retarget the selector)", sc.Name)
			}
			gridBase = sc.Grid
			base = sc.Grid.Base
			break
		}
		if len(axes) == 0 && *selectS == "" && *specOut == "" && *shards == 0 && *serveAddr == "" && !controlFlags && !relFlags {
			if sc.Spec.Control != nil {
				// Controlled scenarios run through the control plane so
				// the report carries the telemetry windows.
				if err := ob.beginRun(sc.Spec, *seed); err != nil {
					return err
				}
				res, err := control.RunSpec(sc.Spec, *seed)
				if err != nil {
					return ob.runErr(err)
				}
				printControlled(out, res, sc.Spec.CacheBytes > 0, *verbose)
				return nil
			}
			if obsFiles {
				if sc.Sweep != nil {
					return fmt.Errorf("-trace-out/-telemetry-out record a single run: scenario %s sweeps thresholds (run its chosen operating point as a -spec)", sc.Name)
				}
				// The file sinks need epoch windows to exist, so the
				// open-loop run streams instead (byte-identical results;
				// the report is the unified metrics form).
				fmt.Fprintf(out, "scenario %s — %s\n\n", sc.Name, sc.Doc)
				return runObserved(out, ob, sc.Spec, *seed, "", *verbose)
			}
			res, err := farm.RunScenario(*scenario, *seed)
			if err != nil {
				return err
			}
			printScenario(out, res, *verbose)
			return nil
		}
		base = sc.Spec
		if sc.Sweep != nil {
			// The scenario's own threshold search joins the grid: its
			// axis comes first and its SLO rule applies unless -select
			// overrides it.
			grid := sc.Sweep.Grid(sc.Name, sc.Spec)
			axes = append(grid.Axes, axes...)
			if *selectS == "" {
				selector = grid.Select
			}
		}
	case *tracePath == "":
		return fmt.Errorf("one of -scenario, -trace, -spec, -run-shard, or -merge is required (use -scenarios to list)")
	default:
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		alloc, err := allocSpec(*assignIn, *algo, *capL, *farmN)
		if err != nil {
			return err
		}
		spin, err := spinSpec(*threshold)
		if err != nil {
			return err
		}
		base = farm.Spec{
			Name:       "disksim",
			Workload:   farm.TraceWorkload(tr),
			Alloc:      alloc,
			Spin:       spin,
			FarmSize:   *farmN,
			CacheBytes: int64(*cacheB),
		}
	}

	// Fold the -control/-epoch/-budget overrides into the base spec:
	// "static" strips a scenario's controller, anything else installs
	// or rewrites one (the scenario's own epoch and budget survive
	// unless overridden).
	if controlFlags {
		if *controlName == "static" || *controlName == "none" {
			if wasSet("epoch") || wasSet("budget") {
				return fmt.Errorf("-epoch/-budget have no effect with -control %s", *controlName)
			}
			base.Control = nil
		} else {
			cs := farm.ControlSpec{}
			if base.Control != nil {
				cs = *base.Control
			}
			if *controlName != "" {
				cs.Controller = *controlName
			}
			if wasSet("epoch") {
				cs.Epoch = *epochF
			}
			if wasSet("budget") {
				cs.BudgetP95 = *budgetF
			}
			if cs.Controller == "" {
				return fmt.Errorf("-epoch/-budget need -control NAME (or a controlled scenario); controllers: tail-budget, rate-respec")
			}
			if _, err := control.ParseKind(cs.Controller); err != nil {
				return err
			}
			if cs.Epoch == 0 {
				cs.Epoch = control.DefaultEpoch
			}
			base.Control = &cs
			// A threshold-family spin policy becomes the tunable kind the
			// tail-budget controller actuates (a fixed threshold survives
			// as the initial value). Other kinds — adaptive, randomized,
			// never, immediate — are left alone; the controller can still
			// observe and re-spec, it just has no threshold knob.
			switch base.Spin.Kind {
			case farm.SpinBreakEven:
				base.Spin = farm.SpinSpec{Kind: farm.SpinTailAware}
			case farm.SpinFixed:
				base.Spin = farm.SpinSpec{Kind: farm.SpinTailAware, Threshold: base.Spin.Threshold}
			}
		}
	}

	// Fold -cycle-cap into the base: under a tail-budget controller it
	// becomes the controller's cycle budget (the knob stays tunable);
	// open-loop it rewrites a threshold-family spin policy to the
	// cycle-capped kind, keeping a fixed threshold as the initial value.
	if wasSet("cycle-cap") {
		switch {
		case base.Control != nil:
			// Copy-on-write: a controlled scenario's ControlSpec is shared
			// with the registry.
			cs := *base.Control
			cs.CycleBudget = *cycleCap
			base.Control = &cs
		case base.Spin.Kind == farm.SpinBreakEven:
			base.Spin = farm.CycleCapSpin(0, *cycleCap)
		case base.Spin.Kind == farm.SpinFixed:
			base.Spin = farm.CycleCapSpin(base.Spin.Threshold, *cycleCap)
		case base.Spin.Kind == farm.SpinCycleBudget:
			base.Spin.CycleBudget = *cycleCap
		default:
			return fmt.Errorf("-cycle-cap needs a threshold-family spin policy, not %v", base.Spin.Kind)
		}
	}

	// Fold -afr-budget into the selector: an SLO rule — from -select,
	// the scenario's sweep, or a grid scenario — upgrades to the
	// SLO-and-AFR kind at the given budget.
	selOverride := *selectS != ""
	if wasSet("afr-budget") {
		target := selector
		if !selOverride && gridBase != nil {
			target = gridBase.Select
		}
		switch target.Kind {
		case farm.SelectMinEnergySLO, farm.SelectMinEnergySLOAFR:
			target.Kind = farm.SelectMinEnergySLOAFR
			target.MaxAFR = *afrBudget
		default:
			return fmt.Errorf("-afr-budget needs an SLO selector: add -select slo=SECONDS or use a sweep scenario")
		}
		selector = target
		selOverride = true
	}

	// mkSweep assembles the grid every distributed mode operates on: a
	// grid scenario's own sweep (extended by any -sweep axes), or the
	// ad-hoc base × axes.
	hasGrid := len(axes) > 0 || gridBase != nil
	mkSweep := func() farm.Sweep {
		if gridBase != nil {
			s := *gridBase
			s.Axes = append(append([]farm.Axis{}, s.Axes...), axes...)
			if selOverride {
				s.Select = selector
			}
			return s
		}
		return farm.Sweep{Name: base.Name, Base: base, Axes: axes, Select: selector}
	}

	if selector.Kind != farm.SelectNone && !hasGrid {
		return fmt.Errorf("-select needs a grid: add at least one -sweep axis")
	}
	if obsFiles && hasGrid {
		return fmt.Errorf("-trace-out/-telemetry-out record a single run: drop the -sweep axes (or run one grid point as a -spec)")
	}
	if *shards > 0 {
		if !hasGrid {
			return fmt.Errorf("-shards needs a grid: add -sweep axes or use a sweep scenario/spec")
		}
		return writeShards(mkSweep(), *seed, *shards, *shardOut, out)
	}
	if *serveAddr != "" {
		if !hasGrid {
			return fmt.Errorf("-serve needs a grid: add -sweep axes or use a sweep scenario/spec")
		}
		return serveSweep(out, mkSweep(), *seed, *serveAddr, *journalPath, *leaseD, *batchN, *token, *obsOut, *verbose)
	}

	if *specOut != "" {
		doc := farm.File{}
		if hasGrid {
			s := mkSweep()
			doc.Sweep = &s
		} else {
			doc.Spec = &base
		}
		f, err := os.Create(*specOut)
		if err != nil {
			return err
		}
		err = farm.EncodeFile(f, doc)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *specOut)
		return nil
	}

	if hasGrid {
		return runSweep(out, mkSweep(), *seed, *workers, *verbose)
	}
	if base.Control != nil {
		if err := ob.beginRun(base, *seed); err != nil {
			return err
		}
		res, err := control.RunSpec(base, *seed)
		if err != nil {
			return ob.runErr(err)
		}
		printControlled(out, res, base.CacheBytes > 0, *verbose)
		return nil
	}
	// The threshold header is the ad-hoc flag's echo; scenario-based
	// bases carry their policy in the spec.
	thr := ""
	if *tracePath != "" {
		thr = *threshold
	}
	if obsFiles {
		return runObserved(out, ob, base, *seed, thr, *verbose)
	}
	m, err := farm.Run(base, *seed)
	if err != nil {
		return err
	}
	printMetrics(out, m, thr, base.CacheBytes > 0, *verbose)
	return nil
}

// shardFileName names shard i's manifest; its result file replaces
// .json with .result.json (see resultPathFor).
func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.json", i) }

// resultPathFor derives the default result path of a manifest.
func resultPathFor(manifestPath string) string {
	return strings.TrimSuffix(manifestPath, ".json") + ".result.json"
}

// writeShards partitions the sweep and writes one manifest per shard
// under dir.
func writeShards(sweep farm.Sweep, seed int64, n int, dir string, out io.Writer) error {
	if dir == "" {
		return fmt.Errorf("-shards needs -shard-out DIR")
	}
	manifests, err := farm.Shard(sweep, seed, n)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, m := range manifests {
		path := filepath.Join(dir, shardFileName(m.Index))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = farm.EncodeShard(f, m)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d points)\n", path, len(m.Points))
	}
	fmt.Fprintf(out, "%d shards over %d points; run each with -run-shard, then -merge %s\n",
		n, sweep.NumPoints(), dir)
	return nil
}

// interruptContext is the graceful-shutdown seam of the long-running
// modes (-serve, -work, -run-shard): SIGINT/SIGTERM cancel the context,
// so in-flight points finish, journals and partial results land on
// disk, and the exit is non-zero instead of a mid-write kill.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// Deregister on the first signal: the graceful path is running, and
	// the next Ctrl-C must terminate by default delivery instead of
	// being swallowed while in-flight points wind down.
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// startProfiles wires -cpuprofile/-memprofile: it starts the CPU
// profile immediately and returns an idempotent stop that flushes and
// closes both files. run() defers stop on every return path — the
// graceful-SIGINT modes (-serve/-work/-run-shard) reach it because
// interruptContext converts the signal into a normal return. For the
// other modes, where SIGINT would otherwise kill the process with the
// profile unflushed, startProfiles installs its own handler that
// flushes and exits with the conventional interrupt status.
func startProfiles(cpu, mem string, graceful bool) (stop func(), err error) {
	if cpu == "" && mem == "" {
		return func() {}, nil
	}
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				if err := cpuF.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "disksim: -cpuprofile:", err)
				}
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "disksim: -memprofile:", err)
					return
				}
				runtime.GC() // get up-to-date heap statistics
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "disksim: -memprofile:", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "disksim: -memprofile:", err)
				}
			}
		})
	}
	if !graceful {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			stop()
			os.Exit(130)
		}()
	}
	return stop, nil
}

// openSpanSink creates the -obs-out span log file and its recorder.
// A nil-returning empty path is the disabled state (the recorder's
// methods are nil-safe). The returned close aborts any still-open
// spans, flushes, and closes the file; callers defer it on every exit
// path so a SIGINT return still leaves a valid, complete JSONL log —
// the same guarantee the single-run -trace-out/-telemetry-out sinks
// give.
func openSpanSink(path string) (*obs.SpanRecorder, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-obs-out: %w", err)
	}
	// The recorder owns the file: its Close closes it.
	return obs.NewSpanRecorder(f), nil
}

// mergeTraceDir folds every *.spans.jsonl under dir into one
// Chrome-trace JSON — one track per recorded process — written to
// tracePath, or to out when no -trace-out was given.
func mergeTraceDir(dir, tracePath string, out io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var logs []obs.SpanLog
	var spans int
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".spans.jsonl") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		log, err := obs.ReadSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		logs = append(logs, *log)
		spans += len(log.Spans)
	}
	if len(logs) == 0 {
		return fmt.Errorf("no *.spans.jsonl files in %s (record them with -obs-out)", dir)
	}
	w := out
	var f *os.File
	if tracePath != "" {
		f, err = os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		w = f
	}
	err = obs.WriteSpanTrace(w, logs)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(out, "wrote %s (%d tracks, %d spans)\n", tracePath, len(logs), spans)
		}
	}
	return err
}

// serveSweep runs the grid as a work-stealing coordinator and prints
// the drained report — byte-identical to runSweep of the same grid.
// Progress goes to stderr so the report stays diffable.
func serveSweep(out io.Writer, sweep farm.Sweep, seed int64, addr, journal string, lease time.Duration, batch int, token, obsOut string, verbose bool) (retErr error) {
	ctx, stop := interruptContext()
	defer stop()
	rec, err := openSpanSink(obsOut)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rec.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("-obs-out: %w", cerr)
		}
	}()
	res, err := coord.Serve(ctx, sweep, seed, addr, coord.Config{
		LeaseTimeout: lease,
		BatchSize:    batch,
		JournalPath:  journal,
		Token:        token,
		Spans:        rec,
		OnListen: func(a net.Addr) {
			fmt.Fprintf(os.Stderr, "disksim: coordinator serving %d points on %s\n", sweep.NumPoints(), a)
		},
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if journal != "" {
				return fmt.Errorf("interrupted — journal %s holds every completed point; restart -serve with the same flags to resume", journal)
			}
			return fmt.Errorf("interrupted — completed points are lost (set -journal to make -serve resumable)")
		}
		return err
	}
	printSweep(out, res, verbose)
	// The report is out; the journal — the drained grid's only durable
	// copy until now — has served its purpose. A cleanup failure must
	// not fail the run; the stale journal is harmless (a restart on it
	// drains instantly, its points all being done).
	if journal != "" {
		if rerr := os.Remove(journal); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "disksim: warning: removing journal %s: %v (the report above is complete)\n", journal, rerr)
		}
	}
	return nil
}

// workSweep joins a coordinator and pulls points until the grid drains.
// -obs-out records this worker's span log (flushed on SIGINT like
// every sink) and -metrics-addr serves its per-slot telemetry live.
func workSweep(url, name string, workers int, token, obsOut, metricsAddr string, out io.Writer) (retErr error) {
	ctx, stop := interruptContext()
	defer stop()
	rec, err := openSpanSink(obsOut)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rec.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("-obs-out: %w", cerr)
		}
	}()
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		srv := &http.Server{Handler: obs.NewServeMux(reg), ReadHeaderTimeout: metricsHeaderTimeout}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "disksim: worker metrics on http://%s/metrics\n", ln.Addr())
	}
	stats, err := coord.Work(ctx, url, coord.WorkerConfig{Name: name, Parallel: workers, Token: token, Spans: rec, Metrics: reg})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("worker %s interrupted after %d points — its leases will expire and re-queue at the coordinator", stats.Worker, stats.Points)
		}
		return err
	}
	fmt.Fprintf(out, "worker %s: %d points computed\n", stats.Worker, stats.Points)
	return nil
}

// runShardFile executes one manifest to its result file. An existing
// result file is the resume input: points it already holds are reused,
// only the rest run. While the shard runs, every completed point
// journals to <result>.partial — synced as it lands — so a crash or an
// interrupt loses at most one point; the journal is deleted once the
// final result file is durably in place.
func runShardFile(manifestPath, resultPath string, workers int, obsOut string, out io.Writer) (retErr error) {
	ctx, stop := interruptContext()
	defer stop()
	if resultPath == "" {
		resultPath = resultPathFor(manifestPath)
	}
	f, err := os.Open(manifestPath)
	if err != nil {
		return err
	}
	m, err := farm.DecodeShard(f)
	f.Close()
	if err != nil {
		return err
	}
	rec, err := openSpanSink(obsOut)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rec.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("-obs-out: %w", cerr)
		}
	}()
	if err := rec.Start(obs.SpanHeader{
		Track: fmt.Sprintf("shard-%d", m.Index), Role: "shard",
		SweepHash: farm.Fingerprint(m.Sweep, m.Seed), Seed: m.Seed,
		Points: m.Sweep.NumPoints(),
	}); err != nil {
		return err
	}
	var prior *farm.ShardResult
	if rf, err := os.Open(resultPath); err == nil {
		prior, err = farm.DecodeShardResult(rf)
		rf.Close()
		if err != nil {
			return fmt.Errorf("existing result %s: %w (delete it to start over)", resultPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	partialPath := resultPath + ".partial"
	journal, journaled, err := farm.OpenPointJournal(partialPath, m.Sweep, m.Seed)
	if err != nil {
		return err
	}
	defer journal.Close()
	prior = priorWithJournal(m, prior, journaled)
	reused := m.Reused(prior)
	// The resume decision is worth a record on both planes: a
	// structured event in the span log, and one human line on stderr
	// (the report on stdout stays diffable).
	rec.Event(-1, 0, "resume", obs.SpanOK,
		map[string]any{"reused": reused, "rerun": len(m.Points) - reused})
	if reused > 0 {
		fmt.Fprintf(os.Stderr, "disksim: shard %d resume: %d of %d points reused, %d to run\n",
			m.Index, reused, len(m.Points), len(m.Points)-reused)
	}
	// Every newly computed point lands in the journal and, when a span
	// log is attached, as an instant point event at its completion time.
	sink := journal.Append
	if obsOut != "" {
		sink = func(pr farm.ShardPointResult) error {
			rec.Event(pr.Index, 1, "point", obs.SpanOK, map[string]any{"label": pr.Label})
			return journal.Append(pr)
		}
	}
	res, err := farm.RunShardStream(ctx, *m, prior, workers, sink)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted — %s holds every completed point; re-run -run-shard to resume", partialPath)
		}
		return err
	}
	// Write-then-rename so a failure mid-write cannot destroy the prior
	// result the resume path depends on.
	tmp := resultPath + ".tmp"
	rf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = farm.EncodeShardResult(rf, *res)
	// The journal is deleted below on the strength of this file, so its
	// data must be on disk — not just in the page cache — first.
	if serr := rf.Sync(); err == nil {
		err = serr
	}
	if cerr := rf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, resultPath); err != nil {
		return err
	}
	// The journal may only go once the rename is durable — data pages
	// were synced above, but the directory entry needs its own fsync, or
	// a power loss could persist the journal unlink while losing the
	// rename, and with it every completed point. A cleanup failure must
	// not report the shard as failed either way — a stale journal is
	// harmless, its points all being in the result file already.
	journal.Close()
	if err := farm.SyncParentDir(resultPath); err != nil {
		fmt.Fprintf(os.Stderr, "disksim: warning: syncing directory of %s: %v — keeping journal %s\n", resultPath, err, partialPath)
	} else if err := journal.Remove(); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "disksim: warning: removing journal %s: %v (the result %s is complete)\n", partialPath, err, resultPath)
	}
	fmt.Fprintf(out, "shard %d/%d: %d points (%d reused) -> %s\n",
		m.Index, m.Count, len(res.Points), reused, resultPath)
	return nil
}

// priorWithJournal folds the points recovered from a crash journal into
// the resume input. A result-file prior keeps its identity fields (so
// RunShard still cross-checks them against the manifest) and wins index
// ties; with no result file, the journaled points stand alone.
func priorWithJournal(m *farm.ShardManifest, prior *farm.ShardResult, journaled []farm.ShardPointResult) *farm.ShardResult {
	if len(journaled) == 0 {
		return prior
	}
	merged := farm.ShardResult{Index: m.Index, Count: m.Count, Seed: m.Seed, Sweep: m.Sweep}
	if prior != nil {
		merged = *prior
		merged.Points = append([]farm.ShardPointResult(nil), prior.Points...)
	}
	have := make(map[int]bool, len(merged.Points))
	for _, p := range merged.Points {
		have[p.Index] = true
	}
	for _, p := range journaled {
		if !have[p.Index] {
			merged.Points = append(merged.Points, p)
			have[p.Index] = true
		}
	}
	sort.Slice(merged.Points, func(i, j int) bool { return merged.Points[i].Index < merged.Points[j].Index })
	return &merged
}

// mergeShards recombines every *.result.json under dir and reports the
// sweep exactly as a single-process run would have. A -select override
// re-picks the operating point post-merge.
func mergeShards(dir string, sel farm.Selector, selSet, verbose bool, out io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var results []farm.ShardResult
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".result.json") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		r, err := farm.DecodeShardResult(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		results = append(results, *r)
	}
	if len(results) == 0 {
		return fmt.Errorf("no *.result.json files in %s (run shards with -run-shard first)", dir)
	}
	res, err := farm.Merge(results)
	if err != nil {
		return err
	}
	if selSet {
		if err := res.Reselect(sel); err != nil {
			return err
		}
	}
	printSweep(out, res, verbose)
	return nil
}

// runSweep executes and prints an ad-hoc grid.
func runSweep(out io.Writer, sweep farm.Sweep, seed int64, workers int, verbose bool) error {
	res, err := farm.RunSweep(sweep, seed, workers)
	if err != nil {
		return err
	}
	printSweep(out, res, verbose)
	return nil
}

func listScenarios(out io.Writer) {
	for _, sc := range farm.Scenarios() {
		kind := "run"
		switch {
		case sc.Grid != nil:
			kind = fmt.Sprintf("grid of %d points", sc.Grid.NumPoints())
		case sc.Sweep != nil:
			kind = fmt.Sprintf("sweep over %d thresholds", len(sc.Sweep.Thresholds))
		case sc.Spec.Control != nil:
			kind = "controlled"
		}
		fmt.Fprintf(out, "%-20s %-18s %s\n", sc.Name, kind, sc.Doc)
	}
}

func printScenario(out io.Writer, res *farm.Result, verbose bool) {
	fmt.Fprintf(out, "scenario %s — %s\n", res.Scenario.Name, res.Scenario.Doc)
	if res.Scenario.Sweep == nil {
		fmt.Fprintln(out)
		printMetrics(out, res.Runs[0], "", res.Scenario.Spec.CacheBytes > 0, verbose)
		return
	}
	fmt.Fprintf(out, "SLO: p95 response <= %g s\n\n", res.Scenario.Sweep.MaxP95)
	fmt.Fprintf(out, "%-18s %10s %10s %10s %10s %8s\n", "point", "power(W)", "saving", "p95(s)", "mean(s)", "meets?")
	for i, m := range res.Runs {
		mark := "no"
		if m.RespP95 <= res.Scenario.Sweep.MaxP95 {
			mark = "yes"
		}
		if i == res.Best {
			mark = "chosen"
		}
		fmt.Fprintf(out, "%-18s %10.1f %9.1f%% %10.2f %10.2f %8s\n",
			res.Labels[i], m.AvgPower, m.PowerSavingRatio*100, m.RespP95, m.RespMean, mark)
	}
	if res.Best < 0 {
		fmt.Fprintln(out, "\nno threshold meets the SLO — add disks or relax the target")
	} else {
		best := res.Runs[res.Best]
		fmt.Fprintf(out, "\noperating point: %s (%.1f W, p95 %.2f s)\n", res.Labels[res.Best], best.AvgPower, best.RespP95)
	}
}

// printSweep renders a grid result: one row per point plus the
// selector's verdict.
func printSweep(out io.Writer, res *farm.SweepResult, verbose bool) {
	name := res.Sweep.Name
	if name == "" {
		name = "sweep"
	}
	fmt.Fprintf(out, "sweep %s — %d points\n", name, len(res.Points))
	if res.Sweep.PlanOnly {
		printPlanSweep(out, res)
		return
	}
	sel := res.Sweep.Select
	switch sel.Kind {
	case farm.SelectMinEnergySLO:
		fmt.Fprintf(out, "selector: min energy with p95 response <= %g s\n", sel.MaxP95)
	case farm.SelectMinEnergySLOAFR:
		fmt.Fprintf(out, "selector: min energy with p95 response <= %g s and AFR <= %g%%\n", sel.MaxP95, sel.MaxAFR*100)
	case farm.SelectKnee:
		fmt.Fprintln(out, "selector: knee of the energy/response curve")
	case farm.SelectPareto:
		fmt.Fprintln(out, "selector: pareto front of (energy, mean response)")
	}
	onFront := make(map[int]bool, len(res.Front))
	for _, i := range res.Front {
		onFront[i] = true
	}
	width := 24
	for i := range res.Points {
		if len(res.Points[i].Label) > width {
			width = len(res.Points[i].Label)
		}
	}
	fmt.Fprintf(out, "\n%-*s %10s %10s %10s %10s %8s\n", width, "point", "power(W)", "saving", "p95(s)", "mean(s)", "")
	for i := range res.Points {
		m := res.Points[i].Metrics
		mark := ""
		switch {
		case i == res.Best:
			mark = "chosen"
		case onFront[i]:
			mark = "front"
		case sel.Kind == farm.SelectMinEnergySLO && m.RespP95 <= sel.MaxP95:
			mark = "ok"
		case sel.Kind == farm.SelectMinEnergySLOAFR && m.RespP95 <= sel.MaxP95 && m.AFR <= sel.MaxAFR:
			mark = "ok"
		}
		fmt.Fprintf(out, "%-*s %10.1f %9.1f%% %10.2f %10.2f %8s\n",
			width, res.Points[i].Label, m.AvgPower, m.PowerSavingRatio*100, m.RespP95, m.RespMean, mark)
	}
	switch {
	case res.Best >= 0:
		best := res.Points[res.Best]
		fmt.Fprintf(out, "\noperating point: %s (%.1f W, p95 %.2f s)\n", best.Label, best.Metrics.AvgPower, best.Metrics.RespP95)
	case sel.Kind == farm.SelectMinEnergySLO:
		fmt.Fprintln(out, "\nno point meets the SLO — add disks or relax the target")
	case sel.Kind == farm.SelectMinEnergySLOAFR:
		fmt.Fprintln(out, "\nno point meets both the SLO and the AFR budget — relax a target or cap cycles instead")
	case sel.Kind == farm.SelectPareto:
		fmt.Fprintf(out, "\npareto front: %d of %d points\n", len(res.Front), len(res.Points))
	}
	if verbose {
		for i := range res.Points {
			fmt.Fprintf(out, "\n== %s ==\n", res.Points[i].Label)
			printMetrics(out, res.Points[i].Metrics, "", res.Points[i].Spec.CacheBytes > 0, true)
		}
	}
}

// printPlanSweep renders a plan-only grid: allocation quality per
// point, no simulation metrics and no operating point.
func printPlanSweep(out io.Writer, res *farm.SweepResult) {
	fmt.Fprintln(out, "plan only: allocation stage, no simulation")
	width := 24
	for i := range res.Points {
		if len(res.Points[i].Label) > width {
			width = len(res.Points[i].Label)
		}
	}
	fmt.Fprintf(out, "\n%-*s %8s %10s %8s %10s\n", width, "point", "disks", "lower-bnd", "rho", "thm1-bnd")
	for i := range res.Points {
		a := res.Points[i].Alloc
		fmt.Fprintf(out, "%-*s %8d %10d %8.3f %10.2f\n",
			width, res.Points[i].Label, a.DisksUsed, a.LowerBound, a.Rho, a.Bound)
	}
}

// printControlled renders a closed-loop run: the unified metrics, a
// per-window telemetry table, and (verbose) the controller's action
// log. Everything printed is a pure function of (spec, seed), so two
// runs diff clean — the CI control-smoke job depends on that.
func printControlled(out io.Writer, res *control.Result, withCache, verbose bool) {
	m := res.Metrics
	fmt.Fprintf(out, "controller        %s (%d windows, %d actions)\n", res.Controller, len(res.Windows), len(res.Actions))
	printMetrics(out, m, "", withCache, verbose)
	if m.Sim.MigratedFiles > 0 {
		fmt.Fprintf(out, "migration         %d files, %.3e bytes, %.3e J\n",
			m.Sim.MigratedFiles, float64(m.Sim.MigratedBytes), m.Sim.MigrationEnergy)
	}
	fmt.Fprintf(out, "\n%-6s %-8s %10s %8s %8s %10s %10s %8s\n",
		"window", "span(s)", "threshold", "arrive", "done", "p95(s)", "energy(J)", "spinups")
	for _, w := range res.Windows {
		// The homogeneous threshold column reads group 0; heterogeneous
		// farms list every group's knob.
		thr := ""
		for g := range w.Groups {
			if g > 0 {
				thr += "/"
			}
			thr += fmt.Sprintf("%.4g", w.Groups[g].Threshold)
		}
		fmt.Fprintf(out, "%-6d %-8.0f %10s %8d %8d %10.2f %10.3e %8d\n",
			w.Index, w.End-w.Start, thr, w.Total.Arrivals, w.Total.Completed,
			w.Total.RespP95, w.Total.Energy, w.Total.SpinUps)
	}
	if verbose {
		fmt.Fprintln(out, "\nactions:")
		for _, a := range res.Actions {
			status := "applied"
			if !a.Applied {
				status = "skipped"
			}
			fmt.Fprintf(out, "  w%02d %-14s %-7s %s\n", a.Window, a.Action.Kind, status, a.Note)
		}
	}
}

func printMetrics(out io.Writer, m *farm.Metrics, threshold string, withCache, verbose bool) {
	if threshold != "" {
		fmt.Fprintf(out, "farm              %d disks, threshold %s\n", m.FarmSize, threshold)
	} else {
		fmt.Fprintf(out, "farm              %d disks (%d used by the allocation)\n", m.FarmSize, m.DisksUsed)
	}
	fmt.Fprintf(out, "energy            %.3e J over %.0f s (avg %.1f W)\n", m.Energy, m.Duration, m.AvgPower)
	fmt.Fprintf(out, "no-saving energy  %.3e J\n", m.NoSavingEnergy)
	fmt.Fprintf(out, "power saving      %.1f%%\n", m.PowerSavingRatio*100)
	fmt.Fprintf(out, "response time     mean %.2f s  median %.2f s  p95 %.2f s  p99 %.2f s  max %.2f s\n",
		m.RespMean, m.RespMedian, m.RespP95, m.RespP99, m.RespMax)
	fmt.Fprintf(out, "requests          %d completed, %d unfinished\n", m.Completed, m.Unfinished)
	fmt.Fprintf(out, "spin transitions  %d up, %d down\n", m.SpinUps, m.SpinDowns)
	fmt.Fprintf(out, "drive life        %.1f cycles/disk-day, modeled AFR %.2f%%\n", m.CyclesPerDay, m.AFR*100)
	if m.Failures > 0 || m.Rebuilds > 0 {
		fmt.Fprintf(out, "failures          %d (%d data-loss), %d rebuilds, %.0f s degraded\n",
			m.Failures, m.DataLossEvents, m.Rebuilds, m.RebuildTime)
	}
	fmt.Fprintf(out, "avg standby disks %.1f of %d\n", m.AvgStandbyDisks, m.FarmSize)
	fmt.Fprintf(out, "peak disk queue   %d\n", m.Sim.PeakQueue)
	if withCache {
		fmt.Fprintf(out, "cache             %d hits / %d misses (%.1f%%)\n",
			m.Sim.CacheHits, m.Sim.CacheMisses, m.CacheHitRatio*100)
	}
	if verbose {
		fmt.Fprintln(out, "\ndisk  served  bytesGB  energyKJ  spinups  util%  idle%  standby%")
		for i, b := range m.Sim.PerDisk {
			total := m.Duration
			fmt.Fprintf(out, "%4d  %6d  %7.1f  %8.1f  %7d  %5.1f  %5.1f  %8.1f\n",
				i, b.Served, float64(b.BytesRead)/1e9, b.Energy/1e3, b.SpinUps,
				100*m.Utilization[i],
				100*b.Durations[disk.Idle]/total,
				100*b.Durations[disk.Standby]/total)
		}
	}
}

func allocSpec(assignPath, algo string, capL float64, farmN int) (farm.AllocSpec, error) {
	if assignPath != "" {
		assign, err := readAssign(assignPath)
		if err != nil {
			return farm.AllocSpec{}, err
		}
		return farm.Explicit(assign), nil
	}
	switch algo {
	case "pack":
		return farm.AllocSpec{Kind: farm.AllocPack, CapL: capL}, nil
	case "pack4":
		return farm.AllocSpec{Kind: farm.AllocPackV, CapL: capL, V: 4}, nil
	case "random":
		return farm.AllocSpec{Kind: farm.AllocRandom, CapL: capL, Disks: farmN}, nil
	case "ffd":
		return farm.AllocSpec{Kind: farm.AllocFirstFitDecreasing, CapL: capL}, nil
	case "firstfit":
		return farm.AllocSpec{Kind: farm.AllocFirstFit, CapL: capL}, nil
	case "bestfit":
		return farm.AllocSpec{Kind: farm.AllocBestFit, CapL: capL}, nil
	case "chp":
		return farm.AllocSpec{Kind: farm.AllocChangHwangPark, CapL: capL}, nil
	default:
		return farm.AllocSpec{}, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func spinSpec(threshold string) (farm.SpinSpec, error) {
	switch threshold {
	case "breakeven":
		return farm.SpinSpec{Kind: farm.SpinBreakEven}, nil
	case "never":
		return farm.SpinSpec{Kind: farm.SpinNever}, nil
	case "immediate":
		return farm.SpinSpec{Kind: farm.SpinImmediate}, nil
	case "adaptive":
		return farm.SpinSpec{Kind: farm.SpinAdaptive}, nil
	case "randomized":
		return farm.SpinSpec{Kind: farm.SpinRandomized}, nil
	default:
		th, err := strconv.ParseFloat(threshold, 64)
		if err != nil {
			return farm.SpinSpec{}, fmt.Errorf("bad -threshold: %w", err)
		}
		return farm.FixedSpin(th), nil
	}
}

func readAssign(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		d, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("bad assignment line %q: %w", line, err)
		}
		out = append(out, d)
	}
	return out, sc.Err()
}

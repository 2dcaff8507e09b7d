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
// manifests, run anywhere into point journals, and merge back
// byte-identically (selectors apply post-merge; a re-run of -run-shard
// resumes, skipping points its result journal already holds):
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
	"slices"
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

// axisHelp describes each -sweep dimension, indexed by axis kind.
var axisHelp = [...]string{
	farm.AxisSpinThreshold: "spin-down idleness threshold, seconds",
	farm.AxisFarmSize:      "farm size, disks",
	farm.AxisCacheBytes:    "front LRU cache, bytes",
	farm.AxisCapL:          "packing load constraint in (0,1]",
	farm.AxisPackV:         "Pack_Disks_v group size",
	farm.AxisArrivalRate:   "workload intensity, requests/s",
	farm.AxisAllocKind:     "allocation strategy: " + farm.AllocNames(),
	farm.AxisSeed:          "seed offset for independent replications",
	farm.AxisController:    "online controller: " + control.KindList() + ", static (base needs -control or a controlled scenario)",
}

// gridUsage is appended to every -sweep/-select parse failure so a typo
// always surfaces the full vocabulary, whatever path it took in.
var gridUsage = func() string {
	var b strings.Builder
	b.WriteString("sweep axes (repeatable, -sweep dim=v1,v2,...):\n")
	for k, help := range axisHelp {
		fmt.Fprintf(&b, "  %-10s %s\n", farm.AxisKind(k), help)
	}
	return b.String() + "selectors (-select): " + farm.SelectorNames()
}()

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disksim:", err)
		os.Exit(1)
	}
}

// cli is one invocation: its flag values, the flags given explicitly,
// and what resolve made of them.
type cli struct {
	out   io.Writer
	given []string // explicitly set flags, in lexicographical order

	// Flag values, grouped by the rows of the mode table that take them.
	scenario, specIn, tracePath               string // inputs
	assignIn, algo, threshold                 string // the spec around a -trace
	capL, cacheB                              float64
	farmN                                     int
	controlName, selectS                      string // overrides
	epochF, budgetF, afrBudget, cycleCap      float64
	sweeps                                    axisFlags
	seed                                      int64 // actions
	verbose                                   bool
	workers, shards                           int
	specOut, shardOut, serveAddr, journalPath string
	leaseD                                    time.Duration
	token, obsOut, traceOut, telemOut         string
	mergeTrace, workURL, workerName           string // standalone modes
	runShard, shardResult, mergeDir           string
	cpuProfile, memProfile, metricsAddr       string // every mode
	simWorkers                                int

	// Resolved from the flags.
	axes     []farm.Axis
	selector farm.Selector
	sc       *farm.Scenario // the -scenario input, named by the report header
	thr      string         // the -trace input's -threshold, echoed by the report
	doc      farm.File      // the document an action works on
	ob       *obsOutputs
}

// flagSet binds every flag to its field of c.
func (c *cli) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("disksim", flag.ContinueOnError)
	fs.StringVar(&c.scenario, "scenario", "", "run a registered scenario by name (see -scenarios)")
	fs.Bool("scenarios", false, "list registered scenarios and exit") // selects its mode; the value is never read
	fs.StringVar(&c.tracePath, "trace", "", "input trace file (ad-hoc mode)")
	fs.StringVar(&c.assignIn, "assign", "", "file→disk map (one disk per line); overrides -algo")
	fs.StringVar(&c.algo, "algo", "pack", "allocator when -assign is absent: "+farm.AlgoNames())
	fs.Float64Var(&c.capL, "L", 0.7, "load constraint for packing")
	fs.IntVar(&c.farmN, "disks", 0, "farm size (0 = as many as the allocation uses)")
	fs.StringVar(&c.threshold, "threshold", "breakeven", "idleness threshold in seconds, or a policy: "+farm.SpinNames())
	fs.Float64Var(&c.cacheB, "cache", 0, "LRU cache bytes (0 = none; paper uses 16e9)")
	fs.Int64Var(&c.seed, "seed", 1, "seed for random placement and randomized policies")
	fs.IntVar(&c.workers, "workers", 0, "parallel sweep simulations (0 = GOMAXPROCS)")
	fs.IntVar(&c.simWorkers, "sim-workers", 1, "shard each simulation across N worker goroutines (0 = GOMAXPROCS); results are identical at any value")
	fs.StringVar(&c.selectS, "select", "", "sweep operating-point rule: "+farm.SelectorNames())
	fs.StringVar(&c.specIn, "spec", "", "run a JSON scenario file (a Spec or a Sweep; see -spec-out)")
	fs.StringVar(&c.specOut, "spec-out", "", "write the assembled spec/sweep as JSON and exit")
	fs.IntVar(&c.shards, "shards", 0, "split the grid into N shard manifests under -shard-out instead of running it")
	fs.StringVar(&c.shardOut, "shard-out", "", "directory for -shards manifests (created if missing)")
	fs.StringVar(&c.runShard, "run-shard", "", "execute one shard manifest file and write its result file")
	fs.StringVar(&c.shardResult, "shard-result", "", "result journal for -run-shard (default: manifest path with .result.jsonl)")
	fs.StringVar(&c.mergeDir, "merge", "", "merge shard result journals (*.result.jsonl) from a directory and report the sweep")
	fs.StringVar(&c.serveAddr, "serve", "", "serve the grid as a work-stealing coordinator on ADDR (e.g. :9931) and report when it drains")
	fs.StringVar(&c.workURL, "work", "", "join a coordinator as a pull-based worker (URL, e.g. http://host:9931)")
	fs.StringVar(&c.workerName, "name", "", "worker name for -work (default <hostname>-<pid>)")
	fs.StringVar(&c.journalPath, "journal", "", "coordinator crash journal for -serve: completed points append here; restart with the same flags to resume")
	fs.DurationVar(&c.leaseD, "lease", time.Minute, "coordinator lease: how long a worker may hold a point without a heartbeat before it re-queues")
	fs.StringVar(&c.token, "token", "", "shared secret for -serve/-work: workers must present it, mismatches get 401")
	fs.StringVar(&c.obsOut, "obs-out", "", "write this process's span log (JSONL) to FILE; for -serve, -work, and -run-shard (name them *.spans.jsonl and fold with -merge-trace)")
	fs.StringVar(&c.mergeTrace, "merge-trace", "", "fold the *.spans.jsonl span logs under DIR into one Chrome-trace JSON (to -trace-out FILE, default stdout; load in Perfetto)")
	fs.StringVar(&c.controlName, "control", "", "run closed-loop under an online controller: "+control.KindList()+", or static to strip a scenario's controller")
	fs.Float64Var(&c.epochF, "epoch", 0, "telemetry window length in seconds for -control (default: the scenario's, or 1800)")
	fs.Float64Var(&c.budgetF, "budget", 0, "p95 response-time budget in seconds for -control tail-budget (default: the scenario's, or 20)")
	fs.Float64Var(&c.afrBudget, "afr-budget", 0, "annual-failure-rate budget in (0,1): upgrades an slo= selector to min-energy-under-SLO-and-AFR")
	fs.Float64Var(&c.cycleCap, "cycle-cap", 0, "spin-down cycles per disk-day: caps the base spin policy (with -control tail-budget, the controller's cycle budget)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to FILE (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to FILE at exit (go tool pprof)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a single run's state timeline as Chrome-trace JSON to FILE (load in Perfetto)")
	fs.StringVar(&c.telemOut, "telemetry-out", "", "write a single run's per-window telemetry as JSONL to FILE")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live Prometheus /metrics and /debug/pprof on ADDR (e.g. :9100) for the life of the run")
	fs.BoolVar(&c.verbose, "v", false, "per-disk breakdown")
	fs.Var(&c.sweeps, "sweep", "sweep axis dim=v1,v2,... (repeatable; dims: "+farm.AxisNames()+")")
	return fs
}

// role says how a row of the mode table takes part in an invocation.
type role int

const (
	standalone role = iota // a mode that needs no document
	input                  // resolves to the document
	onAny                  // an action on either kind of document
	onSpec                 // an action on a single Spec
	onGrid                 // an action on a Sweep
)

// mode is one row of the dispatch table: the flag that selects it, the
// flags it takes besides that one, and its handler. The table is the
// only place a flag is refused because of another: a flag set outside
// the chosen rows fails with that row's reason, so a flag a mode would
// silently ignore fails loudly by construction.
type mode struct {
	flag    string // selecting flag; "" for the default runs
	arg     string // the flag's argument as errors name it; for a default run, what it is
	role    role
	accepts string                        // the other flags it takes, space-separated
	why     string                        // why it refuses the rest
	load    func(*cli) (farm.File, error) // an input's resolver
	run     func(*cli) error              // a mode's or an action's handler
}

// Flag groups several rows take.
const (
	// overrides reshape the document a scenario or a trace resolves to.
	overrides = "control epoch budget cycle-cap afr-budget sweep select"
	// adhoc assemble the spec around a trace.
	adhoc = "assign algo L disks threshold cache"
)

// everyMode composes with every mode: profiling (a worker or a merge is
// as legitimate a profile target as a plain run), -sim-workers (it only
// shards the simulations the mode runs, never what they compute), and
// -metrics-addr (live metrics observe whatever the mode executes).
var everyMode = []string{"cpuprofile", "memprofile", "sim-workers", "metrics-addr"}

// modes is the dispatch table. An invocation is one standalone mode, or
// one input plus one action on the document it resolves to: the first
// action whose flag is set, else the default run for the document's
// kind. Rows are listed in that precedence, document rows first.
var modes = []mode{
	{flag: "scenario", arg: "NAME", role: input, accepts: overrides, load: (*cli).loadScenario,
		why: "a registered scenario is the whole document; it takes only -control, -epoch, -budget, -cycle-cap, -afr-budget, -sweep, and -select"},
	{flag: "spec", arg: "FILE", role: input, load: (*cli).loadSpec,
		why: "the file is the whole document (edit the file instead)"},
	{flag: "trace", arg: "FILE", role: input, accepts: adhoc + " " + overrides, load: (*cli).loadTrace,
		why: "it takes the allocation, spin-down, cache, and override flags"},

	{flag: "spec-out", arg: "FILE", role: onAny, run: (*cli).writeSpec,
		why: "it writes the document and exits (the run flags go to the run that reads the file)"},
	{flag: "shards", arg: "N", role: onGrid, accepts: "shard-out seed",
		why: "it writes one manifest per shard and exits (-run-shard and -merge take the run flags)",
		run: func(c *cli) error { return writeShards(*c.doc.Sweep, c.seed, c.shards, c.shardOut, c.out) }},
	{flag: "serve", arg: "ADDR", role: onGrid, accepts: "seed v journal lease token obs-out",
		why: "the -work machines run the points (size the pool there) and the coordinator prints the drained report",
		run: func(c *cli) error {
			return serveSweep(c.out, *c.doc.Sweep, c.seed, c.serveAddr, c.journalPath, c.leaseD, c.token, c.obsOut, c.verbose)
		}},
	{arg: "a single-Spec run", role: onSpec, accepts: "seed v trace-out telemetry-out", run: (*cli).runSpec},
	{arg: "a grid run", role: onGrid, accepts: "seed v workers",
		run: func(c *cli) error { return runSweep(c.out, *c.doc.Sweep, c.seed, c.workers, c.verbose) }},

	{flag: "scenarios", why: "it only lists the catalogue",
		run: func(c *cli) error { listScenarios(c.out); return nil }},
	{flag: "merge-trace", arg: "DIR", accepts: "trace-out",
		why: "it only folds span logs into a trace file; it takes -trace-out",
		run: func(c *cli) error { return mergeTraceDir(c.mergeTrace, c.traceOut, c.out) }},
	{flag: "work", arg: "URL", accepts: "workers name token obs-out",
		why: "a worker pulls everything from the coordinator; it takes only -workers, -name, -token, and -obs-out",
		run: func(c *cli) error {
			return workSweep(c.workURL, c.workerName, c.workers, c.token, c.obsOut, c.metricsAddr, c.out)
		}},
	{flag: "run-shard", arg: "FILE", accepts: "shard-result workers obs-out",
		why: "it takes only -shard-result, -workers, and -obs-out (the manifest carries the sweep and its seed)",
		run: func(c *cli) error { return runShardFile(c.runShard, c.shardResult, c.workers, c.obsOut, c.out) }},
	{flag: "merge", arg: "DIR", accepts: "select v",
		why: "it takes only -select and -v (the result journals carry the sweep and its seed)",
		run: func(c *cli) error { return mergeShards(c.mergeDir, c.selector, c.selectS != "", c.verbose, c.out) }},
}

// takes reports whether the row takes flag f besides its own.
func (m *mode) takes(f string) bool { return slices.Contains(strings.Fields(m.accepts), f) }

// String names the row as errors do.
func (m *mode) String() string {
	if m.flag == "" {
		return m.arg
	}
	return "-" + m.flag + " " + m.arg
}

// first returns the first row of the table that ok accepts, or nil.
func first(ok func(*mode) bool) *mode {
	for i := range modes {
		if ok(&modes[i]) {
			return &modes[i]
		}
	}
	return nil
}

// shapesDoc reports whether flag f shapes the document: an input, or a
// flag an input takes. The chosen input vets these, the action the rest.
func shapesDoc(f string) bool {
	return first(func(m *mode) bool { return m.role == input && (m.flag == f || m.takes(f)) }) != nil
}

// takers lists the rows that take flag f: "-serve ADDR or -work URL".
func takers(f string) string {
	var names []string
	for i := range modes {
		if modes[i].takes(f) {
			names = append(names, modes[i].String())
		}
	}
	if len(names) <= 2 {
		return strings.Join(names, " or ")
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// isSet reports whether flag name was given explicitly.
func (c *cli) isSet(name string) bool { return slices.Contains(c.given, name) }

// refuse fails on the first explicitly set flag that row m vets (owns
// reports which) and does not take. A row with a selecting flag names
// itself and its reason; a default run names the rows that take it.
func (c *cli) refuse(m *mode, owns func(string) bool) error {
	for _, f := range c.given {
		if !owns(f) || f == m.flag || m.takes(f) || slices.Contains(everyMode, f) {
			continue
		}
		if m.flag != "" {
			return fmt.Errorf("-%s ignores -%s: %s", m.flag, f, m.why)
		}
		return fmt.Errorf("-%s needs %s", f, takers(f))
	}
	return nil
}

// run is the whole CLI behind a testable seam: it parses args, writes
// human output to out, and returns an error instead of exiting — every
// failure path, flag parsing included, becomes a non-zero exit in main.
// It works in two steps: resolve picks the rows of the mode table (and
// turns a document action's input into one document), then the chosen
// mode acts. The return is named so the deferred observability stop —
// which renders the trace file and flushes the telemetry log — can fail
// the run when a sink write fails.
func run(args []string, out io.Writer) (retErr error) {
	c := &cli{out: out}
	fs := c.flagSet()
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
	fs.Visit(func(f *flag.Flag) { c.given = append(c.given, f.Name) })

	// Start profiling before anything else so every mode is coverable;
	// the deferred stop flushes on every return path out of run(),
	// which includes the graceful-SIGINT returns of -serve/-work/
	// -run-shard (interruptContext turns the signal into a normal
	// return) and of obs-file runs (startObs turns the signal into a
	// window-boundary abort). Modes without that machinery get a
	// flush-and-exit handler from startProfiles itself.
	graceful := c.serveAddr != "" || c.workURL != "" || c.runShard != "" || c.traceOut != "" || c.telemOut != ""
	stopProfiles, err := startProfiles(c.cpuProfile, c.memProfile, graceful)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if err := c.parseValues(); err != nil {
		return err
	}
	// Effective for every simulation any mode runs from here on; the
	// kernel routes non-shardable runs (cache-fronted, unplaced writes)
	// to its sequential path on its own.
	farm.SetSimWorkers(c.simWorkers)

	m, err := c.resolve()
	if err != nil {
		return err
	}
	if m.role != standalone {
		// Observability wraps the document actions — as profiling wraps
		// every mode — so -metrics-addr serves whatever they run; the
		// deferred stop renders the trace file and flushes the telemetry
		// log on every return path, the SIGINT abort included.
		if c.ob, err = startObs(c.traceOut, c.telemOut, c.metricsAddr); err != nil {
			return err
		}
		defer func() {
			if serr := c.ob.stop(); serr != nil && retErr == nil {
				retErr = serr
			}
		}()
	}
	return m.run(c)
}

// parseValues parses the grid flags and rejects values that are
// nonsense on their own, whatever the mode: a bad -sweep or -select
// must fail even alongside -scenarios, and a negative pool would
// silently serialize.
func (c *cli) parseValues() error {
	for _, s := range c.sweeps {
		ax, err := farm.ParseAxis(s)
		if err != nil {
			return fmt.Errorf("%w\n%s", err, gridUsage)
		}
		c.axes = append(c.axes, ax)
	}
	if c.selectS != "" {
		var err error
		if c.selector, err = farm.ParseSelector(c.selectS); err != nil {
			return fmt.Errorf("%w\n%s", err, gridUsage)
		}
	}
	switch {
	case c.workers < 0:
		return fmt.Errorf("-workers %d: valid values are >= 1 (or 0 for one worker per core)", c.workers)
	case c.simWorkers < 0:
		return fmt.Errorf("-sim-workers %d: valid values are >= 1 (or 0 for one worker per core)", c.simWorkers)
	case c.shards < 0:
		return fmt.Errorf("-shards %d must be >= 1", c.shards)
	case c.leaseD < time.Second:
		return fmt.Errorf("-lease %v: valid values are >= 1s (workers heartbeat at a third of the lease)", c.leaseD)
	case c.isSet("afr-budget") && !(c.afrBudget > 0 && c.afrBudget < 1):
		return fmt.Errorf("-afr-budget %v: the annual failure rate budget must be in (0,1)", c.afrBudget)
	case c.isSet("cycle-cap") && !(c.cycleCap > 0 && !math.IsInf(c.cycleCap, 0)):
		return fmt.Errorf("-cycle-cap %v: the cycle budget must be a positive number of cycles per disk-day", c.cycleCap)
	}
	return nil
}

// resolve picks the invocation's rows from the mode table and refuses
// every explicitly set flag they do not take. A standalone mode needs
// nothing more; for a document action, the one input becomes c.doc
// with the override flags applied.
func (c *cli) resolve() (*mode, error) {
	if m := first(func(m *mode) bool { return m.role == standalone && c.isSet(m.flag) }); m != nil {
		return m, c.refuse(m, func(string) bool { return true })
	}
	in := first(func(m *mode) bool { return m.role == input && c.isSet(m.flag) })
	if in == nil {
		return nil, fmt.Errorf("one of -scenario, -trace, -spec, -run-shard, or -merge is required (use -scenarios to list)")
	}
	if err := c.refuse(in, shapesDoc); err != nil {
		return nil, err
	}
	doc, err := in.load(c)
	if err != nil {
		return nil, err
	}
	kind := onSpec
	if doc.Sweep != nil || len(c.axes) > 0 {
		kind = onGrid
	}
	act := first(func(m *mode) bool {
		action := m.role == onAny || m.role == onSpec || m.role == onGrid
		return action && (c.isSet(m.flag) || m.flag == "" && m.role == kind)
	})
	if err := c.refuse(act, func(f string) bool { return !shapesDoc(f) }); err != nil {
		return nil, err
	}
	if act.role == onGrid && kind != onGrid {
		return nil, fmt.Errorf("-%s needs a grid: add -sweep axes or use a grid scenario or file", act.flag)
	}
	c.doc, err = c.override(doc)
	return act, err
}

// loadScenario resolves -scenario: a scenario with a grid resolves to
// that grid, any other to its Spec.
func (c *cli) loadScenario() (farm.File, error) {
	sc, ok := farm.Lookup(c.scenario)
	if !ok {
		return farm.File{}, fmt.Errorf("unknown scenario %q (use -scenarios to list)", c.scenario)
	}
	c.sc = &sc
	if sc.Grid != nil {
		return farm.File{Sweep: sc.Grid}, nil
	}
	return farm.File{Spec: &sc.Spec}, nil
}

// loadSpec resolves -spec: the file's Spec or Sweep.
func (c *cli) loadSpec() (farm.File, error) {
	f, err := os.Open(c.specIn)
	if err != nil {
		return farm.File{}, err
	}
	defer f.Close()
	doc, err := farm.DecodeFile(f)
	if err != nil {
		return farm.File{}, err
	}
	return *doc, nil
}

// loadTrace resolves -trace: a Spec assembled from the trace and the
// allocation, spin-down, and cache flags.
func (c *cli) loadTrace() (farm.File, error) {
	f, err := os.Open(c.tracePath)
	if err != nil {
		return farm.File{}, err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return farm.File{}, err
	}
	alloc, err := c.allocFlags()
	if err != nil {
		return farm.File{}, err
	}
	spin, err := farm.ParseSpin(c.threshold)
	if err != nil {
		return farm.File{}, err
	}
	c.thr = c.threshold
	return farm.File{Spec: &farm.Spec{
		Name:       "disksim",
		Workload:   farm.TraceWorkload(tr),
		Alloc:      alloc,
		Spin:       spin,
		FarmSize:   c.farmN,
		CacheBytes: int64(c.cacheB),
	}}, nil
}

// allocFlags resolves -assign, or else -algo with -L and, for random,
// -disks.
func (c *cli) allocFlags() (farm.AllocSpec, error) {
	if c.assignIn != "" {
		assign, err := readAssign(c.assignIn)
		if err != nil {
			return farm.AllocSpec{}, err
		}
		return farm.Explicit(assign), nil
	}
	alloc, err := farm.ParseAlloc(c.algo)
	if err != nil {
		return farm.AllocSpec{}, err
	}
	alloc.CapL = c.capL
	if alloc.Kind == farm.AllocRandom {
		alloc.Disks = c.farmN
	}
	return alloc, nil
}

// replacedFlag maps each -sweep axis kind to the -trace spec flags it
// replaces at every point, so setting one beside it would drop the flag
// silently. The allocation axes replace -assign as well as -algo: the
// kind they set at every point replaces the explicit map.
var replacedFlag = map[farm.AxisKind][]string{
	farm.AxisSpinThreshold: {"threshold"},
	farm.AxisCapL:          {"L"},
	farm.AxisCacheBytes:    {"cache"},
	farm.AxisFarmSize:      {"disks"},
	farm.AxisAllocKind:     {"assign", "algo"},
	farm.AxisPackV:         {"assign", "algo"},
}

// override applies the override flags to a loaded document, in one
// place: -control/-epoch/-budget and -cycle-cap rewrite a single Spec's
// policy, -sweep axes then make or extend the grid, -select replaces
// its selector, and -afr-budget upgrades an SLO selector to the
// SLO-and-AFR kind. A grid fixes each point's policy, so the policy
// overrides refuse one, and an axis refuses the flag it replaces.
func (c *cli) override(doc farm.File) (farm.File, error) {
	for _, a := range c.axes {
		for _, f := range replacedFlag[a.Kind] {
			// Only a -trace input takes the replaced flags, and it
			// resolves to a Spec.
			if c.isSet(f) && !allocKeepsEffect(doc.Spec.Alloc, a.Kind) {
				return doc, fmt.Errorf("-%s has no effect: the %s axis sets it at every point", f, a.Kind)
			}
		}
	}
	controlFlags := c.controlName != "" || c.isSet("epoch") || c.isSet("budget")
	switch {
	case doc.Sweep != nil && controlFlags:
		return doc, fmt.Errorf("-control cannot override scenario %s: its grid fixes each point's policy", c.scenario)
	case doc.Sweep != nil && c.isSet("cycle-cap"):
		return doc, fmt.Errorf("-cycle-cap cannot override scenario %s: its grid fixes each point's policy (use -afr-budget to retarget the selector)", c.scenario)
	case c.isSet("cycle-cap") && slices.ContainsFunc(c.axes, func(a farm.Axis) bool { return a.Kind == farm.AxisSpinThreshold }):
		// The threshold axis sets a fixed policy at every point,
		// replacing the capped one.
		return doc, fmt.Errorf("-cycle-cap cannot override a threshold axis: its grid fixes each point's policy (use -afr-budget to retarget the selector)")
	}
	if doc.Spec != nil {
		spec := *doc.Spec
		if controlFlags {
			if err := c.overrideControl(&spec); err != nil {
				return doc, err
			}
		}
		if c.isSet("cycle-cap") {
			if err := c.overrideCycleCap(&spec); err != nil {
				return doc, err
			}
		}
		doc.Spec = &spec
		if len(c.axes) > 0 {
			doc = farm.File{Sweep: &farm.Sweep{Name: spec.Name, Base: spec}}
		} else if c.selector.Kind != farm.SelectNone {
			return doc, fmt.Errorf("-select needs a grid: add at least one -sweep axis")
		}
	}
	if doc.Sweep != nil {
		s := *doc.Sweep
		s.Axes = slices.Concat(s.Axes, c.axes)
		if c.selectS != "" {
			s.Select = c.selector
		}
		doc.Sweep = &s
	}
	if c.isSet("afr-budget") {
		if doc.Sweep == nil || doc.Sweep.Select.Kind != farm.SelectMinEnergySLO && doc.Sweep.Select.Kind != farm.SelectMinEnergySLOAFR {
			return doc, fmt.Errorf("-afr-budget needs an SLO selector: add -select slo=SECONDS or use a sweep scenario")
		}
		doc.Sweep.Select.Kind = farm.SelectMinEnergySLOAFR
		doc.Sweep.Select.MaxAFR = c.afrBudget
	}
	return doc, nil
}

// allocKeepsEffect reports whether the -trace spec's allocation sets a
// field that an axis of kind k leaves alone, so the flag that axis
// replaces still has an effect: -algo random spreads files over -disks,
// which the farm axis does not resize, and an alloc axis sets only the
// allocation kind, keeping random's spread and packN's group size. An
// -assign map, which overrides -algo, keeps nothing.
func allocKeepsEffect(alloc farm.AllocSpec, k farm.AxisKind) bool {
	switch k {
	case farm.AxisFarmSize:
		return alloc.Kind == farm.AllocRandom
	case farm.AxisAllocKind:
		return alloc.Kind == farm.AllocRandom || alloc.Kind == farm.AllocPackV
	}
	return false
}

// overrideControl folds -control/-epoch/-budget into a spec: "static"
// strips a scenario's controller, anything else installs or rewrites
// one (the scenario's own epoch and budget survive unless overridden).
func (c *cli) overrideControl(spec *farm.Spec) error {
	if c.controlName == "static" || c.controlName == "none" {
		if c.isSet("epoch") || c.isSet("budget") {
			return fmt.Errorf("-epoch/-budget have no effect with -control %s", c.controlName)
		}
		spec.Control = nil
		return nil
	}
	cs := farm.ControlSpec{}
	if spec.Control != nil {
		cs = *spec.Control
	}
	if c.controlName != "" {
		cs.Controller = c.controlName
	}
	if c.isSet("epoch") {
		cs.Epoch = c.epochF
	}
	if c.isSet("budget") {
		cs.BudgetP95 = c.budgetF
	}
	if cs.Controller == "" {
		return fmt.Errorf("-epoch/-budget need -control NAME (or a controlled scenario); controllers: %s", control.KindList())
	}
	if _, err := control.ParseKind(cs.Controller); err != nil {
		return err
	}
	if cs.Epoch == 0 {
		cs.Epoch = control.DefaultEpoch
	}
	spec.Control = &cs
	// A threshold-family spin policy becomes the tunable kind the
	// tail-budget controller actuates (a fixed threshold survives as the
	// initial value). Other kinds — adaptive, randomized, never,
	// immediate — are left alone; the controller can still observe and
	// re-spec, it just has no threshold knob.
	switch spec.Spin.Kind {
	case farm.SpinBreakEven:
		spec.Spin = farm.SpinSpec{Kind: farm.SpinTailAware}
	case farm.SpinFixed:
		spec.Spin = farm.SpinSpec{Kind: farm.SpinTailAware, Threshold: spec.Spin.Threshold}
	}
	return nil
}

// overrideCycleCap folds -cycle-cap into a spec: under a tail-budget
// controller it becomes the controller's cycle budget (the knob stays
// tunable); open-loop it rewrites a threshold-family spin policy to the
// cycle-capped kind, keeping a fixed threshold as the initial value.
func (c *cli) overrideCycleCap(spec *farm.Spec) error {
	switch {
	case spec.Control != nil:
		// Copy-on-write: a controlled scenario's ControlSpec is shared
		// with the registry.
		cs := *spec.Control
		cs.CycleBudget = c.cycleCap
		spec.Control = &cs
	case spec.Spin.Kind == farm.SpinBreakEven:
		spec.Spin = farm.CycleCapSpin(0, c.cycleCap)
	case spec.Spin.Kind == farm.SpinFixed:
		spec.Spin = farm.CycleCapSpin(spec.Spin.Threshold, c.cycleCap)
	case spec.Spin.Kind == farm.SpinCycleBudget:
		spec.Spin.CycleBudget = c.cycleCap
	default:
		return fmt.Errorf("-cycle-cap needs a threshold-family spin policy, not %v", spec.Spin.Kind)
	}
	return nil
}

// writeSpec writes the resolved document as JSON (-spec-out).
func (c *cli) writeSpec() error {
	f, err := os.Create(c.specOut)
	if err != nil {
		return err
	}
	err = farm.EncodeFile(f, c.doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "wrote %s\n", c.specOut)
	return nil
}

// runSpec runs a single Spec, whichever input it came from. A
// controlled spec runs through the control plane so the report carries
// its telemetry windows. An open-loop one runs through farm.Run — or,
// with file sinks attached, through the telemetry stream with a
// do-nothing sink (byte-identical to farm.Run), so epoch windows exist
// for the telemetry log and the trace's counter track.
func (c *cli) runSpec() error {
	spec := *c.doc.Spec
	if err := c.ob.beginRun(spec, c.seed); err != nil {
		return err
	}
	var res *control.Result
	var m *farm.Metrics
	var err error
	switch {
	case spec.Control != nil:
		res, err = control.RunSpec(spec, c.seed)
	case c.ob.files():
		m, err = farm.RunStream(spec, c.seed, obsEpoch(spec), nil)
	default:
		m, err = farm.Run(spec, c.seed)
	}
	if err != nil {
		return c.ob.runErr(err)
	}
	// The header rule: a -scenario input names its scenario above the
	// report of its single Spec.
	if c.sc != nil {
		fmt.Fprintf(c.out, "scenario %s — %s\n\n", c.sc.Name, c.sc.Doc)
	}
	if res != nil {
		printControlled(c.out, res, spec.CacheBytes > 0, c.verbose)
	} else {
		printMetrics(c.out, m, c.thr, spec.CacheBytes > 0, c.verbose)
	}
	return nil
}

// shardFileName names shard i's manifest; its result journal replaces
// .json with .result.jsonl (see resultPathFor).
func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.json", i) }

// resultPathFor derives the default result journal path of a manifest.
func resultPathFor(manifestPath string) string {
	return strings.TrimSuffix(manifestPath, ".json") + ".result.jsonl"
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
// so in-flight points finish and land in their journals, and the exit
// is non-zero instead of a mid-write kill.
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
func serveSweep(out io.Writer, sweep farm.Sweep, seed int64, addr, journal string, lease time.Duration, token, obsOut string, verbose bool) (retErr error) {
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

// runShardFile executes one manifest into its result journal. Every
// completed point is appended and synced as it lands, so a crash or an
// interrupt loses at most one point, and a re-run reopens the journal
// and runs only the points it lacks.
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
	journal, done, err := farm.OpenPointJournal(resultPath, m.Sweep, m.Seed)
	if err != nil {
		return err
	}
	reused := len(done)
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
	_, err = farm.RunShard(ctx, *m, done, workers, sink)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted — %s holds every completed point; re-run -run-shard to resume", resultPath)
		}
		return err
	}
	fmt.Fprintf(out, "shard %d/%d: %d points (%d reused) -> %s\n",
		m.Index, m.Count, len(m.Points), reused, resultPath)
	return nil
}

// mergeShards recombines every *.result.jsonl journal under dir and
// reports the sweep exactly as a single-process run would have. A
// -select override re-picks the operating point post-merge.
func mergeShards(dir string, sel farm.Selector, selSet, verbose bool, out io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".result.jsonl") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.result.jsonl files in %s (run shards with -run-shard first)", dir)
	}
	res, err := farm.Merge(paths)
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
		case sc.Spec.Control != nil:
			kind = "controlled"
		}
		fmt.Fprintf(out, "%-20s %-18s %s\n", sc.Name, kind, sc.Doc)
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
// runs diff clean — TestControlledRunDeterministicOutput depends on
// that.
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

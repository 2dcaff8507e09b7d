// Command diskpack allocates the files of a trace to disks with a
// chosen algorithm and reports the packing quality (disks used, lower
// bound, Theorem 1 ceiling, per-disk fill).
//
// Usage:
//
//	diskpack -trace nersc.trace -algo pack -L 0.7
//	diskpack -trace synth.trace -algo pack4 -L 0.5 -assign out.map
//	diskpack -trace synth.trace -algo ffd -L 0.8 -empirical
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"diskpack/internal/core"
	"diskpack/internal/farm"
	"diskpack/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diskpack:", err)
		os.Exit(1)
	}
}

// run is one invocation: parse args, pack the trace, and write the
// report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diskpack", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "input trace file (required)")
		algo      = fs.String("algo", "pack", "allocator: "+farm.AlgoNames())
		capL      = fs.Float64("L", 0.7, "load constraint as fraction of disk transfer capability")
		disks     = fs.Int("disks", 0, "random: farm size (0 = same as pack)")
		seed      = fs.Int64("seed", 1, "random: seed")
		empirical = fs.Bool("empirical", false, "use measured per-file rates instead of stored ones")
		assignOut = fs.String("assign", "", "write file→disk map (one disk number per line)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	alloc, err := farm.ParseAlloc(*algo)
	if err != nil {
		return err
	}
	alloc.CapL = *capL
	if alloc.Kind == farm.AllocRandom {
		alloc.Disks = *disks
	}
	in, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.Read(in)
	in.Close()
	if err != nil {
		return err
	}
	if *empirical {
		tr.SetEmpiricalRates()
	}
	spec := farm.Spec{Name: "diskpack", Workload: farm.TraceWorkload(tr), Alloc: alloc}
	items, err := spec.Items(tr)
	if err != nil {
		return err
	}
	// Allocation draws at the plan seed + 1, so plan at -seed − 1 for
	// random to draw at -seed.
	plan, err := farm.Plan(spec, *seed-1)
	if err != nil {
		return err
	}
	a := core.Assignment{DiskOf: plan.Assign, NumDisks: plan.DisksUsed}

	fmt.Fprintf(out, "algorithm        %s\n", *algo)
	fmt.Fprintf(out, "files            %d\n", len(items))
	fmt.Fprintf(out, "disks used       %d\n", a.NumDisks)
	fmt.Fprintf(out, "lower bound      %d\n", plan.LowerBound)
	fmt.Fprintf(out, "rho              %.4f\n", plan.Rho)
	fmt.Fprintf(out, "theorem-1 bound  %.1f\n", plan.Bound)
	sizesSum, loadsSum := a.Totals(items)
	var maxS, maxL, avgS, avgL float64
	for d := range sizesSum {
		if sizesSum[d] > maxS {
			maxS = sizesSum[d]
		}
		if loadsSum[d] > maxL {
			maxL = loadsSum[d]
		}
		avgS += sizesSum[d]
		avgL += loadsSum[d]
	}
	n := float64(a.NumDisks)
	fmt.Fprintf(out, "fill size        avg %.3f max %.3f\n", avgS/n, maxS)
	fmt.Fprintf(out, "fill load        avg %.3f max %.3f\n", avgL/n, maxL)

	if *assignOut != "" {
		f, err := os.Create(*assignOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, d := range a.DiskOf {
			fmt.Fprintln(w, d)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "assignment       written to %s\n", *assignOut)
	}
	return nil
}

// Command workloadgen generates workload traces in the diskpack trace
// format and prints their summary statistics. -kind takes farm's
// workload kind names, the ones spec files carry, except trace, which
// replays a file instead of generating one.
//
// Usage:
//
//	workloadgen -kind synthetic -rate 6 -out synth.trace
//	workloadgen -kind synthetic -diurnal -rate 2 -out diurnal.trace
//	workloadgen -kind bursty -rate 2 -out bursty.trace
//	workloadgen -kind nersc -seed 7 -out nersc.trace
//	workloadgen -kind nersc -files 5000 -requests 10000 -stats-only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diskpack/internal/farm"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// generated lists the workload kinds -kind takes, in farm's order.
var generated = []farm.WorkloadKind{farm.WorkloadSynthetic, farm.WorkloadNERSC, farm.WorkloadBursty}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}
}

// run is one invocation: parse args, generate the trace, and write it
// to out (or to -out). Summary statistics go to standard error.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("workloadgen", flag.ContinueOnError)
	kind := farm.WorkloadSynthetic
	fs.TextVar(&kind, "kind", kind, "workload kind: "+kindNames())
	var (
		rate      = fs.Float64("rate", 6, "synthetic/bursty: mean arrival rate R (req/s)")
		files     = fs.Int("files", 0, "override file count (0 = paper value)")
		requests  = fs.Int("requests", 0, "nersc: override request count (0 = paper value)")
		diurnal   = fs.Bool("diurnal", false, "synthetic: modulate arrivals with the default diurnal profile")
		seed      = fs.Int64("seed", 1, "random seed")
		outPath   = fs.String("out", "", "output file (empty = stdout; ignored with -stats-only)")
		statsOnly = fs.Bool("stats-only", false, "print summary statistics instead of the trace")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	var (
		tr  *trace.Trace
		err error
	)
	switch kind {
	case farm.WorkloadSynthetic:
		cfg := workload.DefaultSynthetic(*rate, *seed)
		if *files > 0 {
			cfg.NumFiles = *files
		}
		if *diurnal {
			cfg.Diurnal = workload.DefaultDiurnal()
		}
		tr, err = cfg.Build()
	case farm.WorkloadNERSC:
		cfg := workload.DefaultNERSC(*seed)
		if *files > 0 {
			cfg.NumFiles = *files
		}
		if *requests > 0 {
			cfg.NumRequests = *requests
		}
		tr, err = cfg.Build()
	case farm.WorkloadBursty:
		cfg := workload.DefaultBursty(*rate, *seed)
		if *files > 0 {
			cfg.NumFiles = *files
		}
		tr, err = cfg.Build()
	default:
		return fmt.Errorf("-kind %s is not generated (have %s)", kind, kindNames())
	}
	if err != nil {
		return err
	}

	if *statsOnly {
		printStats(tr)
		return nil
	}
	if *outPath == "" {
		return trace.Write(out, tr)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	printStats(tr)
	return nil
}

// kindNames spells the kinds -kind takes: "synthetic, nersc, bursty".
func kindNames() string {
	names := make([]string, len(generated))
	for i, k := range generated {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

func printStats(tr *trace.Trace) {
	s := tr.Stats()
	fmt.Fprintf(os.Stderr, "files            %d\n", s.NumFiles)
	fmt.Fprintf(os.Stderr, "requests         %d (distinct files touched: %d)\n", s.NumRequests, s.DistinctRequested)
	fmt.Fprintf(os.Stderr, "duration         %.0f s (%.1f h)\n", s.Duration, s.Duration/3600)
	fmt.Fprintf(os.Stderr, "arrival rate     %.6f req/s\n", s.ArrivalRate)
	fmt.Fprintf(os.Stderr, "mean file size   %.1f MB\n", s.MeanFileSize/1e6)
	fmt.Fprintf(os.Stderr, "mean req size    %.1f MB\n", s.MeanRequestSize/1e6)
	fmt.Fprintf(os.Stderr, "population       %.2f TB (%.1f disks of 500 GB)\n",
		float64(s.TotalBytes)/1e12, float64(s.TotalBytes)/500e9)
	fit := tr.SizeZipfFit(80)
	fmt.Fprintf(os.Stderr, "size log-log fit slope %.3f R2 %.3f over 80 bins\n", fit.Slope, fit.R2)
	fmt.Fprintf(os.Stderr, "size-frequency correlation %.4f\n", tr.SizeFrequencyCorrelation())
}

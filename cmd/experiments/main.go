// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run fig2            # one experiment
//	experiments -run all -scale 1    # everything at paper scale
//	experiments -run fig56 -format csv -out results/
//
// Experiments: table1, table2, packquality, scaling, fig2, fig3, fig23,
// fig4, fig5, fig6, fig56, vsweep, policies, analysis, reorg, control,
// reliability, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diskpack/internal/exp"
	"diskpack/internal/farm"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment name (see package doc) or 'all'")
		scale     = flag.Float64("scale", 1.0, "workload scale in (0,1]; 1 = paper scale")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		format    = flag.String("format", "table", "output format: table or csv")
		out       = flag.String("out", "", "directory to write one file per table (default: stdout)")
		scenarios = flag.Bool("scenarios", false, "list the farm scenario catalogue (run them with cmd/disksim) and exit")
	)
	flag.Parse()

	if *scenarios {
		for _, sc := range farm.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Doc)
		}
		return
	}

	opts := exp.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	if err := opts.Validate(); err != nil {
		fatal(err)
	}
	start := time.Now()
	tables, err := exp.Run(*run, opts)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		var body string
		switch *format {
		case "csv":
			body = t.CSV()
		case "table":
			body = t.String()
		default:
			fatal(fmt.Errorf("unknown format %q", *format))
		}
		if *out == "" {
			fmt.Println(body)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		ext := ".txt"
		if *format == "csv" {
			ext = ".csv"
		}
		path := filepath.Join(*out, t.Name+ext)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Fprintf(os.Stderr, "done in %v (scale %g, seed %d)\n", time.Since(start).Round(time.Millisecond), *scale, *seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

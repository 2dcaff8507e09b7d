package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Repeat mode: the evidence for the benchmark's steadiness. It runs one
// workload N times, each in a fresh process (peak RSS and the heap are
// per process), and prints every printed metric's median, quartiles,
// interquartile range over median and full range over median. The
// quartiles are Python's statistics.quantiles(n=4), the rule the
// benchmark's bounds are judged by.

// rowPattern matches a metric row: name, value, unit.
var rowPattern = regexp.MustCompile(`^([A-Za-z0-9][A-Za-z0-9_.-]*)\s+(\S+)\s+(\S+)`)

func repeatRuns(out io.Writer, w *workload, seed int64, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := range n {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		if err := lastLineCorrect(b); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		var summary []string
		perOp := ""
		for sc.Scan() {
			if p, ok := strings.CutPrefix(sc.Text(), "# per op: "); ok {
				perOp = p
			}
			m := rowPattern.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			x, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			if _, seen := values[m[1]]; !seen {
				order = append(order, m[1])
				units[m[1]] = m[3]
			}
			values[m[1]] = append(values[m[1]], x)
			summary = append(summary, fmt.Sprintf("%s=%.4g", m[1], x))
		}
		fmt.Fprintf(out, "run %2d seed %d: %s\n        per op %s\n", i+1, s, strings.Join(summary[:min(4, len(summary))], " "), perOp)
	}
	fmt.Fprintf(out, "%s: %d runs, %g s each\n", w.name, n, seconds)
	fmt.Fprintf(out, "%-28s %-6s %12s %12s %12s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range order {
		xs := values[name]
		if len(xs) < 2 {
			continue
		}
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-28s %-6s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%\n",
			name, units[name], med, q1, q3, 100*spread(q3-q1, med), 100*spread(slices.Max(xs)-slices.Min(xs), med))
	}
	return nil
}

func spread(d, med float64) float64 {
	if med == 0 {
		return 0
	}
	return d / med
}

// lastLineCorrect checks a run's result line: correct, nothing failed.
func lastLineCorrect(b []byte) error {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%d ops failed their output checks", res.Failed)
	}
	return nil
}

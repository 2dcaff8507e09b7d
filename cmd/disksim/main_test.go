package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// writeGridSpec writes a small sweep scenario file and returns its
// path: a 300-file Table 1 miniature crossed over threshold × farm
// size, the same shape the farm fixtures use.
func writeGridSpec(t *testing.T, dir string) string {
	t.Helper()
	cfg := workload.DefaultSynthetic(2, 0)
	cfg.NumFiles = 300
	cfg.MinSize = disk.MB
	cfg.MaxSize = 40 * disk.MB
	sweep := farm.Sweep{
		Name: "cli-grid",
		Base: farm.Spec{
			Name:     "cli-grid",
			Workload: farm.SyntheticWorkload(cfg),
			Alloc:    farm.Packed(0.7),
		},
		Axes: []farm.Axis{
			{Kind: farm.AxisSpinThreshold, Values: []float64{30, 600}},
			{Kind: farm.AxisFarmSize, Values: []float64{8, 12}},
		},
		Select: farm.Selector{Kind: farm.SelectKnee},
	}
	path := filepath.Join(dir, "grid.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := farm.EncodeFile(f, farm.File{Sweep: &sweep}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTrace writes a small synthetic trace file and returns its path.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	cfg := workload.DefaultSynthetic(2, 0)
	cfg.NumFiles = 300
	cfg.MinSize = disk.MB
	cfg.MaxSize = 40 * disk.MB
	tr, err := farm.BuildTrace(farm.SyntheticWorkload(cfg), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "small.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// gridInput is one grid route the route-identity tests replay.
type gridInput struct {
	name   string
	args   []string
	shard0 int // points in shard 0 of 2
}

// gridInputs are a spec-file grid and the two SLO-selected grid
// scenarios.
func gridInputs(t *testing.T, dir string) []gridInput {
	return []gridInput{
		{"spec-file", []string{"-spec", writeGridSpec(t, dir), "-seed", "5"}, 2},
		{"slo-sweep", []string{"-scenario", "slo-sweep", "-seed", "7"}, 4},
		{"reliability-sweep", []string{"-scenario", "reliability-sweep", "-seed", "7"}, 2},
	}
}

// TestShardMergeMatchesSingleRun drives the whole CLI path the CI
// matrix job uses: shard a grid, run each shard, merge, and require the
// merged report to be byte-identical to the single-process run of the
// same grid — for a spec-file grid and for grid scenarios.
func TestShardMergeMatchesSingleRun(t *testing.T) {
	dir := t.TempDir()
	for _, in := range gridInputs(t, dir) {
		t.Run(in.name, func(t *testing.T) {
			var single bytes.Buffer
			if err := run(in.args, &single); err != nil {
				t.Fatal(err)
			}

			shardDir := filepath.Join(dir, "shards-"+in.name)
			if err := run(append(in.args, "-shards", "2", "-shard-out", shardDir), io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"shard-000.json", "shard-001.json"} {
				if err := run([]string{"-run-shard", filepath.Join(shardDir, name)}, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			var merged bytes.Buffer
			if err := run([]string{"-merge", shardDir}, &merged); err != nil {
				t.Fatal(err)
			}
			if single.String() != merged.String() {
				t.Fatalf("merged report differs from the single-process run:\n--- single\n%s--- merged\n%s", single.String(), merged.String())
			}

			// A torn final line — a crash mid-append — is not a point:
			// the merge ignores it and the report does not move.
			rf, err := os.OpenFile(filepath.Join(shardDir, "shard-001.result.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rf.WriteString(`{"Index": 1, "Label": "torn`); err != nil {
				t.Fatal(err)
			}
			rf.Close()
			merged.Reset()
			if err := run([]string{"-merge", shardDir}, &merged); err != nil {
				t.Fatal(err)
			}
			if single.String() != merged.String() {
				t.Fatal("merged report changed after a torn tail landed in a result journal")
			}

			// Re-running a shard resumes: the result journal already
			// holds every point, so nothing is recomputed and the merge
			// still matches.
			var rerun bytes.Buffer
			if err := run([]string{"-run-shard", filepath.Join(shardDir, "shard-000.json")}, &rerun); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(rerun.String(), fmt.Sprintf("(%d reused)", in.shard0)) {
				t.Errorf("re-run did not resume from the existing result journal: %q", rerun.String())
			}
			merged.Reset()
			if err := run([]string{"-merge", shardDir}, &merged); err != nil {
				t.Fatal(err)
			}
			if single.String() != merged.String() {
				t.Fatal("merged report changed after a resumed re-run")
			}

			// A post-merge -select override re-picks the operating point.
			var reselected bytes.Buffer
			if err := run([]string{"-merge", shardDir, "-select", "pareto"}, &reselected); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(reselected.String(), "pareto front") {
				t.Errorf("-merge -select pareto did not re-select:\n%s", reselected.String())
			}
		})
	}
}

// TestBadGridFlagsFail pins the exit-status bug: every path that parses
// -sweep or -select must fail (non-nil error from run, hence non-zero
// exit) and surface the axis/selector catalogue — including paths like
// -scenarios that used to return success before parsing the grid flags.
func TestBadGridFlagsFail(t *testing.T) {
	cases := [][]string{
		{"-scenarios", "-sweep", "bogus=1,2"},
		{"-scenario", "paper-synth", "-sweep", "bogus=1,2"},
		{"-scenario", "paper-synth", "-sweep", "threshold=x"},
		{"-scenario", "paper-synth", "-sweep", "threshold="},
		{"-scenario", "paper-synth", "-sweep", "threshold=30", "-select", "bogus"},
		{"-scenarios", "-select", "slo"},
	}
	for _, args := range cases {
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("run(%v) succeeded, want parse failure", args)
			continue
		}
		if !strings.Contains(err.Error(), "selectors (-select)") {
			t.Errorf("run(%v) error lacks the grid catalogue: %v", args, err)
		}
	}
	// An undefined flag must also fail rather than be ignored.
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Error("undefined flag accepted")
	}
	// The happy paths stay happy.
	if err := run([]string{"-scenarios"}, io.Discard); err != nil {
		t.Errorf("-scenarios failed: %v", err)
	}
}

// TestModeTableNamesRealFlags keeps the mode table and the flag set in
// step: every flag a row names exists, and every flag has a row that
// takes it (one no row took would be refused by every mode).
func TestModeTableNamesRealFlags(t *testing.T) {
	flags := (&cli{}).flagSet()
	for _, m := range modes {
		for _, name := range append(strings.Fields(m.accepts), m.flag) {
			if name != "" && flags.Lookup(name) == nil {
				t.Errorf("row %s names undefined flag -%s", m.String(), name)
			}
		}
	}
	flags.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(everyMode, f.Name) && first(func(m *mode) bool { return m.flag == f.Name || m.takes(f.Name) }) == nil {
			t.Errorf("no row of the mode table takes -%s", f.Name)
		}
	})
}

func TestShardFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	tr := writeTrace(t, dir)
	assign := filepath.Join(dir, "small.map")
	if err := os.WriteFile(assign, []byte(strings.Repeat("0\n1\n", 150)), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-spec", spec, "-shards", "2"},                                         // no -shard-out
		{"-run-shard", "x.json", "-sweep", "threshold=30"},                      // run-shard is self-contained
		{"-merge", dir, "-shards", "2"},                                         // merge doesn't shard
		{"-spec", spec, "-shards", "2", "-shard-out", dir, "-spec-out", "o.js"}, // two write-and-exit modes
		{"-scenario", "paper-synth", "-shards", "2", "-shard-out", dir},         // no grid on a plain scenario
		{"-run-shard", "x.json", "-seed", "99"},                                 // seed lives in the manifest
		{"-merge", dir, "-seed", "99"},                                          // seed lives in the results
		{"-run-shard", "x.json", "-threshold", "900"},                           // spec flags would be silently ignored
		{"-run-shard", "x.json", "-cache", "16e9"},
		{"-run-shard", "x.json", "-v"},                                                                // run-shard writes a file, prints no metrics
		{"-merge", dir, "-workers", "4"},                                                              // merge runs nothing
		{"-scenario", "paper-synth", "-sweep", "threshold=30,60", "-shard-out", dir},                  // -shard-out without -shards
		{"-scenario", "paper-synth", "-shard-result", "r.json"},                                       // -shard-result without -run-shard
		{"-scenario", "paper-synth", "-sweep", "threshold=30,60", "-shards", "-1", "-shard-out", dir}, // negative shard count
		{"-spec", spec, "-shards", "-1", "-shard-out", dir},                                           // negative count on the spec path too
		{"-scenarios", "-run-shard", "x.json"},                                                        // list mode ignores every other flag
		{"-scenarios", "-shards", "2", "-shard-out", dir},
		{"-scenario", "paper-synth", "-threshold", "900", "-algo", "random", "-L", "0.3", "-disks", "50", "-cache", "16e9"}, // ad-hoc flags shape -trace runs only
		{"-spec", spec, "-threshold", "900", "-algo", "random"},
		{"-scenario", "paper-synth", "-trace", tr}, // two inputs: one would silently win
		{"-spec", spec, "-scenario", "paper-synth"},
		{"-spec", spec, "-trace", tr},
		{"-trace", tr, "-sweep", "threshold=30,600", "-threshold", "900"}, // each axis replaces its flag at every point
		{"-trace", tr, "-sweep", "L=0.5,0.7", "-L", "0.3"},
		{"-trace", tr, "-sweep", "cache=0,1e9", "-cache", "16e9"},
		{"-trace", tr, "-sweep", "farm=40,80", "-disks", "200"},
		{"-trace", tr, "-sweep", "alloc=pack,random", "-algo", "ffd"},
		{"-trace", tr, "-sweep", "v=2,4", "-algo", "ffd"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want conflict error", args)
		}
	}
	// An explicit map is replaced by either allocation axis, and the
	// refusal names the pair instead of failing the first packed point.
	for _, c := range []struct{ axis, want string }{
		{"alloc=pack,ffd", "-assign has no effect: the alloc axis sets it at every point"},
		{"v=2,4", "-assign has no effect: the v axis sets it at every point"},
	} {
		args := []string{"-trace", tr, "-assign", assign, "-sweep", c.axis}
		if err := run(args, io.Discard); err == nil || err.Error() != c.want {
			t.Errorf("run(%v) = %v, want %q", args, err, c.want)
		}
	}
	// The same axes run without the flag they replace, and with a flag
	// that keeps an effect beside them.
	for _, args := range [][]string{
		{"-trace", tr, "-sweep", "threshold=30,600"},
		{"-trace", tr, "-sweep", "farm=40,80", "-disks", "20", "-algo", "random"},
		{"-trace", tr, "-sweep", "alloc=packv,pack", "-algo", "pack4"},
		{"-trace", tr, "-assign", assign, "-sweep", "threshold=30,600"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-merge", dir}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no *.result.jsonl") {
		t.Errorf("merge of a result-less directory: %v", err)
	}
}

// TestPoolFlagValidation pins the loud-range-error satellite: pool and
// coordinator sizing flags reject nonsense with the valid range named
// instead of clamping or spinning.
func TestPoolFlagValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-spec", spec, "-workers", "-1"}, "valid values"},
		{[]string{"-work", "http://127.0.0.1:1", "-workers", "-4"}, "valid values"},
		{[]string{"-spec", spec, "-serve", "127.0.0.1:0", "-lease", "10ms"}, "valid values"},
		// Leases carry one point, so the lease cap is gone with its flag.
		{[]string{"-spec", spec, "-serve", "127.0.0.1:0", "-batch", "2"}, "flag provided but not defined: -batch"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want error naming %q", c.args, err, c.want)
		}
	}
}

func TestCoordFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	cases := [][]string{
		{"-spec", spec, "-serve", ":0", "-shards", "2", "-shard-out", dir}, // two distribution modes
		{"-spec", spec, "-serve", ":0", "-workers", "2"},                   // pool size belongs to -work
		{"-scenario", "paper-synth", "-workers", "4"},                      // a single run has no pool to size
		{"-scenario", "paper-synth", "-serve", ":0"},                       // no grid
		{"-work", "http://x", "-scenario", "paper-synth"},                  // worker pulls everything
		{"-work", "http://x", "-select", "knee"},
		{"-work", "http://x", "-serve", ":0"},
		{"-spec", spec, "-journal", "j"},  // journal without -serve
		{"-spec", spec, "-lease", "90s"},  // lease without -serve
		{"-spec", spec, "-name", "mybox"}, // name without -work
		{"-spec", spec, "-serve", ":0", "-name", "mybox"},
		{"-run-shard", "x.json", "-serve", ":0"},
		{"-merge", dir, "-work", "http://x"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want conflict error", args)
		}
	}
}

// freeAddr reserves a localhost port long enough to hand it to -serve.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitDialable blocks until the coordinator is accepting connections,
// so a fast grid cannot drain and shut down inside a late joiner's
// first retry backoff.
func waitDialable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator on %s never started listening: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeWorkMatchesSingleRun drives the elastic pool through the
// CLI exactly as the CI job does: -serve on localhost, two -work
// processes (in-process here), and a report byte-identical to the
// single-process run of the same grid — a spec file or a grid scenario.
func TestServeWorkMatchesSingleRun(t *testing.T) {
	dir := t.TempDir()
	for _, in := range gridInputs(t, dir) {
		t.Run(in.name, func(t *testing.T) {
			var single bytes.Buffer
			if err := run(in.args, &single); err != nil {
				t.Fatal(err)
			}

			addr := freeAddr(t)
			journal := filepath.Join(dir, in.name+".journal")
			var served bytes.Buffer
			serveErr := make(chan error, 1)
			go func() {
				serveErr <- run(append(in.args, "-serve", addr,
					"-journal", journal, "-lease", "5s"), &served)
			}()
			waitDialable(t, addr)

			workErr := make(chan error, 2)
			var workOut [2]bytes.Buffer
			for i := 0; i < 2; i++ {
				go func(i int) {
					workErr <- run([]string{"-work", "http://" + addr, "-workers", "2",
						"-name", fmt.Sprintf("w%d", i)}, &workOut[i])
				}(i)
			}
			for i := 0; i < 2; i++ {
				if err := <-workErr; err != nil {
					t.Fatal(err)
				}
			}
			if err := <-serveErr; err != nil {
				t.Fatal(err)
			}
			if single.String() != served.String() {
				t.Fatalf("coordinator report differs from the single-process run:\n--- single\n%s--- served\n%s", single.String(), served.String())
			}
			if workOut[0].String()+workOut[1].String() == "" {
				t.Error("workers reported nothing")
			}
			if _, err := os.Stat(journal); !os.IsNotExist(err) {
				t.Errorf("journal not cleaned up after success: %v", err)
			}
		})
	}
}

// TestServeInterrupt pins the graceful-shutdown satellite: SIGINT ends
// a -serve run with a non-zero (non-nil) outcome that names the
// journal, and the journal file survives for the resume.
func TestServeInterrupt(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	addr := freeAddr(t)
	journal := filepath.Join(dir, "coord.journal")

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-spec", spec, "-seed", "5", "-serve", addr, "-journal", journal}, io.Discard)
	}()
	// Wait until the coordinator is actually listening before
	// delivering the signal.
	waitDialable(t, addr)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := <-serveErr
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted -serve returned %v, want an interruption error", err)
	}
	if !strings.Contains(err.Error(), journal) {
		t.Errorf("interruption error does not name the journal: %v", err)
	}
	if _, statErr := os.Stat(journal); statErr != nil {
		t.Errorf("journal missing after interrupt: %v", statErr)
	}
}

// TestRunShardPartialResume pins -run-shard's resume: the result
// journal a crashed run left is the resume input (its points are
// reused, proven by a doctored sentinel surviving the run), and it is
// the only file the run leaves beside the manifests.
func TestRunShardPartialResume(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	shardDir := filepath.Join(dir, "shards")
	if err := run([]string{"-spec", spec, "-seed", "5", "-shards", "2", "-shard-out", shardDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(shardDir, "shard-000.json")
	m := readManifest(t, manifestPath)

	// Simulate a crashed earlier run: a result journal holding one
	// completed point with a sentinel energy no simulation produces.
	c, err := farm.Compile(m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.RunPoint(m.Points[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	doctored := *pr.Metrics
	doctored.Energy = 123456789
	pr.Metrics = &doctored
	resultPath := resultPathFor(manifestPath)
	j, _, err := farm.OpenPointJournal(resultPath, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(pr); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var out bytes.Buffer
	if err := run([]string{"-run-shard", manifestPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1 reused)") {
		t.Errorf("run did not resume from the result journal: %q", out.String())
	}
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"shard-000.json", "shard-000.result.jsonl", "shard-001.json"}; !slices.Equal(names, want) {
		t.Errorf("shard directory holds %v, want %v", names, want)
	}
	j, points, err := farm.OpenPointJournal(resultPath, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(points) != len(m.Points) {
		t.Fatalf("result journal holds %d points, the shard owns %d", len(points), len(m.Points))
	}
	if points[0].Index != pr.Index || points[0].Metrics.Energy != 123456789 {
		t.Error("journaled point was re-run instead of reused")
	}
}

// TestShardResultJournalRefusals pins what the result journal refuses:
// -run-shard on a journal that holds another shard's point, or on a
// .result.json document of earlier builds (left untouched), and -merge
// of a journal written for another seed, naming that file.
func TestShardResultJournalRefusals(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	shardDir := filepath.Join(dir, "shards")
	if err := run([]string{"-spec", spec, "-seed", "5", "-shards", "2", "-shard-out", shardDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	manifest0 := filepath.Join(shardDir, "shard-000.json")
	manifest1 := filepath.Join(shardDir, "shard-001.json")
	if err := run([]string{"-run-shard", manifest1}, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-run-shard", manifest0, "-shard-result", resultPathFor(manifest1)}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Errorf("-run-shard on another shard's journal: %v", err)
	}

	m := readManifest(t, manifest0)
	old, err := json.MarshalIndent(map[string]any{
		"Index": m.Index, "Count": m.Count, "Seed": m.Seed, "Sweep": m.Sweep, "Points": []any{},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(shardDir, "shard-000.result.json")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-run-shard", manifest0, "-shard-result", oldPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "delete it to start over") {
		t.Errorf("-run-shard on an earlier build's result document: %v", err)
	}
	if after, _ := os.ReadFile(oldPath); !bytes.Equal(after, old) {
		t.Error("the refused result document was modified")
	}

	wrongSeed := filepath.Join(shardDir, "seed-6.result.jsonl")
	j, _, err := farm.OpenPointJournal(wrongSeed, m.Sweep, 6)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	err = run([]string{"-merge", shardDir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), wrongSeed) || !strings.Contains(err.Error(), "different sweep or seed") {
		t.Errorf("-merge with another seed's journal: %v", err)
	}
}

// readManifest decodes the shard manifest at path.
func readManifest(t *testing.T, path string) *farm.ShardManifest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := farm.DecodeShard(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

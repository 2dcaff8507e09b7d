package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diskpack/internal/obs"
)

func readSpanFile(t *testing.T, path string) *obs.SpanLog {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return log
}

// TestFleetObsCLI drives the whole fleet-observability surface the CI
// smoke job uses: a -serve coordinator and two -work processes all
// recording -obs-out span logs, a report byte-identical to the
// uninstrumented single-process run, and -merge-trace folding the
// three logs into one valid Chrome-trace JSON.
func TestFleetObsCLI(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)

	var single bytes.Buffer
	if err := run([]string{"-spec", spec, "-seed", "5"}, &single); err != nil {
		t.Fatal(err)
	}

	obsDir := filepath.Join(dir, "obs")
	if err := os.MkdirAll(obsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	var served bytes.Buffer
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-spec", spec, "-seed", "5", "-serve", addr,
			"-lease", "5s",
			"-obs-out", filepath.Join(obsDir, "coordinator.spans.jsonl")}, &served)
	}()
	waitDialable(t, addr)

	workErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			workErr <- run([]string{"-work", "http://" + addr, "-workers", "2",
				"-name", fmt.Sprintf("w%d", i),
				"-obs-out", filepath.Join(obsDir, fmt.Sprintf("w%d.spans.jsonl", i))}, io.Discard)
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
		t.Fatalf("instrumented coordinator report differs from the single-process run:\n--- single\n%s--- served\n%s", single.String(), served.String())
	}

	// All three span logs parse and agree on the sweep; the healthy
	// pool's grant and point counts both equal the grid size.
	coLog := readSpanFile(t, filepath.Join(obsDir, "coordinator.spans.jsonl"))
	grants, points := 0, 0
	for _, sp := range coLog.Spans {
		if sp.Phase == "grant" {
			grants++
		}
	}
	for i := 0; i < 2; i++ {
		wl := readSpanFile(t, filepath.Join(obsDir, fmt.Sprintf("w%d.spans.jsonl", i)))
		if wl.Header.SweepHash != coLog.Header.SweepHash {
			t.Errorf("worker %d sweep hash %q, coordinator %q", i, wl.Header.SweepHash, coLog.Header.SweepHash)
		}
		for _, sp := range wl.Spans {
			if sp.Phase == "point" {
				points++
			}
		}
	}
	if n := coLog.Header.Points; grants != n || points != n {
		t.Errorf("%d grant and %d point spans, want %d each (points × attempts)", grants, points, n)
	}

	// -merge-trace folds the logs into one valid Chrome-trace JSON.
	tracePath := filepath.Join(dir, "sweep.trace.json")
	var mergeOut bytes.Buffer
	if err := run([]string{"-merge-trace", obsDir, "-trace-out", tracePath}, &mergeOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mergeOut.String(), "3 tracks") {
		t.Errorf("merge report %q, want 3 tracks", mergeOut.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	tracked := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "point" {
			tracked++
		}
	}
	if tracked != coLog.Header.Points {
		t.Errorf("merged trace has %d point spans, want %d", tracked, coLog.Header.Points)
	}

	// Without -trace-out the trace goes to stdout.
	var stdout bytes.Buffer
	if err := run([]string{"-merge-trace", obsDir}, &stdout); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &trace); err != nil {
		t.Fatalf("stdout trace not valid JSON: %v", err)
	}
}

// TestRunShardObsOut pins -run-shard's span log: a resume event with
// the reused/rerun split, one point event per computed point, and on a
// full resume an event showing nothing re-ran.
func TestRunShardObsOut(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	shardDir := filepath.Join(dir, "shards")
	if err := run([]string{"-spec", spec, "-seed", "5", "-shards", "2", "-shard-out", shardDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(shardDir, "shard-000.json")

	spansPath := filepath.Join(dir, "shard0.spans.jsonl")
	if err := run([]string{"-run-shard", manifest, "-obs-out", spansPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	log := readSpanFile(t, spansPath)
	if log.Header.Role != "shard" || log.Header.Track != "shard-0" {
		t.Errorf("span header %+v, want role shard, track shard-0", log.Header)
	}
	points := 0
	var resume *obs.Span
	for i, sp := range log.Spans {
		switch sp.Phase {
		case "point":
			points++
		case "resume":
			resume = &log.Spans[i]
		}
	}
	if points != 2 {
		t.Errorf("%d point events, want the shard's 2 points", points)
	}
	if resume == nil {
		t.Fatal("no resume event in the span log")
	}
	if got := resume.Args["reused"]; got != float64(0) {
		t.Errorf("fresh run resume event reused=%v, want 0", got)
	}

	// Re-run: the result journal resumes everything, so the event reports
	// 2 reused / 0 rerun and no point events follow.
	rerunPath := filepath.Join(dir, "shard0-rerun.spans.jsonl")
	if err := run([]string{"-run-shard", manifest, "-obs-out", rerunPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	log = readSpanFile(t, rerunPath)
	points, resume = 0, nil
	for i, sp := range log.Spans {
		switch sp.Phase {
		case "point":
			points++
		case "resume":
			resume = &log.Spans[i]
		}
	}
	if points != 0 {
		t.Errorf("full resume re-ran %d points", points)
	}
	if resume == nil || resume.Args["reused"] != float64(2) || resume.Args["rerun"] != float64(0) {
		t.Errorf("resume event %+v, want reused=2 rerun=0", resume)
	}
}

// TestFleetObsFlagValidation pins the loud-failure contract of the new
// flags: -obs-out outside its modes and -merge-trace alongside
// unrelated flags are errors, not silent no-ops.
func TestFleetObsFlagValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	cases := [][]string{
		{"-spec", spec, "-obs-out", "x.spans.jsonl"},              // single runs use -trace-out
		{"-scenario", "paper-synth", "-obs-out", "x.spans.jsonl"}, // ditto
		{"-merge", dir, "-obs-out", "x.spans.jsonl"},              // merge records nothing
		{"-merge-trace", dir, "-select", "knee"},                  // merge-trace only folds logs
		{"-merge-trace", dir, "-spec", spec},                      // ditto
		{"-merge-trace", dir, "-telemetry-out", "t.jsonl"},        // output is a trace, not telemetry
		{"-merge-trace", filepath.Join(dir, "missing")},           // unreadable directory
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
	}
	// An empty directory names the convention in its error.
	if err := run([]string{"-merge-trace", dir}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "*.spans.jsonl") {
		t.Errorf("merge-trace of a log-less directory: %v", err)
	}
}

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// A controlled run is byte-identical across invocations and reports
// its windows, under either controller.
func TestControlledRunDeterministicOutput(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		controller string
	}{
		{[]string{"-scenario", "controlled-bursty", "-control", "tail-budget", "-seed", "3"}, "tail-budget"},
		{[]string{"-scenario", "controlled-bursty", "-control", "rate-respec", "-epoch", "500", "-seed", "7"}, "rate-respec"},
		{[]string{"-scenario", "controlled-bursty", "-control", "reorg-adaptive", "-epoch", "500", "-seed", "7", "-v"}, "reorg-adaptive"},
	} {
		var a, b bytes.Buffer
		if err := run(tc.args, &a); err != nil {
			t.Fatal(err)
		}
		if err := run(tc.args, &b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%v: controlled runs differ between invocations", tc.args)
		}
		out := a.String()
		for _, want := range []string{"controller        " + tc.controller, "window", "threshold"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// A controlled scenario and the spec file it writes are one document:
// run either way, the report is the same apart from the scenario
// header.
func TestControlledSpecFileMatchesScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "controlled.json")
	if err := run([]string{"-scenario", "controlled-bursty", "-spec-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var scenario, file bytes.Buffer
	if err := run([]string{"-scenario", "controlled-bursty", "-seed", "3"}, &scenario); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-seed", "3"}, &file); err != nil {
		t.Fatal(err)
	}
	header, report, _ := strings.Cut(scenario.String(), "\n\n")
	if !strings.HasPrefix(header, "scenario controlled-bursty — ") {
		t.Errorf("scenario run lacks its header: %q", header)
	}
	if report != file.String() {
		t.Errorf("-spec report differs from the scenario run:\n--- scenario\n%s--- spec\n%s", report, file.String())
	}
}

// -control composes with ad-hoc and scenario bases and rejects
// nonsense loudly instead of silently ignoring flags.
func TestControlFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "bursty", "-control", "no-such-controller"}, "unknown controller"},
		{[]string{"-scenario", "bursty", "-epoch", "600"}, "-epoch/-budget need -control"},
		{[]string{"-scenario", "controlled-bursty", "-control", "static", "-epoch", "600"}, "have no effect"},
		{[]string{"-scenario", "static-vs-controlled", "-control", "tail-budget"}, "grid fixes each point's policy"},
		{[]string{"-token", "x", "-scenario", "bursty"}, "-token needs -serve"},
		{[]string{"-scenario", "bursty", "-sweep", "control=tail-budget"}, "controller axis needs a base spec"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
	// -control static on a controlled scenario runs open-loop.
	var out bytes.Buffer
	if err := run([]string{"-scenario", "controlled-bursty", "-control", "static"}, &out); err != nil {
		t.Fatalf("-control static: %v", err)
	}
	if strings.Contains(out.String(), "controller ") {
		t.Error("static run still reports a controller")
	}
	// A controller axis over a controlled base compiles and runs.
	out.Reset()
	if err := run([]string{"-scenario", "controlled-bursty", "-sweep", "control=static,tail-budget"}, &out); err != nil {
		t.Fatalf("controller axis sweep: %v", err)
	}
	if !strings.Contains(out.String(), "control=tail-budget") {
		t.Errorf("sweep output lacks the controlled point:\n%s", out.String())
	}
}

// The grid scenario runs through -scenario and prints the full grid
// with its SLO verdict.
func TestGridScenarioCLI(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "controlled-bursty", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "actions:") {
		t.Errorf("-v controlled output lacks the action log:\n%.400s", out.String())
	}
}

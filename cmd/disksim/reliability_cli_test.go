package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestReliabilityFlagValidation pins the new flags' failure modes: out
// of range budgets, -afr-budget without an SLO rule to upgrade, and
// -cycle-cap against bases whose policy is not the CLI's to rewrite.
func TestReliabilityFlagValidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeGridSpec(t, dir)
	fail := [][]string{
		{"-scenario", "bursty", "-afr-budget", "1.5"},                                                 // AFR is a rate in (0,1)
		{"-scenario", "bursty", "-afr-budget", "0"},                                                   // zero budget is no budget
		{"-scenario", "bursty", "-cycle-cap", "-1"},                                                   // negative cycles
		{"-scenario", "bursty", "-afr-budget", "0.1"},                                                 // no SLO selector to upgrade
		{"-scenario", "bursty", "-sweep", "threshold=30,60", "-select", "knee", "-afr-budget", "0.1"}, // knee has no budgets
		{"-scenario", "reliability-sweep", "-cycle-cap", "2"},                                         // grid fixes each point's policy
		{"-spec", spec, "-cycle-cap", "2"},                                                            // spec files are edited, not flagged
		{"-spec", spec, "-afr-budget", "0.1"},
		{"-scenario", "bursty", "-sweep", "threshold=30,600", "-cycle-cap", "0.5"}, // the threshold axis replaces the capped policy
		{"-scenario", "slo-sweep", "-cycle-cap", "0.5"},
	}
	for _, args := range fail {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want validation error", args)
		}
	}

	var out bytes.Buffer
	if err := run([]string{"-scenario", "bursty", "-cycle-cap", "2", "-seed", "5"}, &out); err != nil {
		t.Fatalf("-cycle-cap on a break-even base: %v", err)
	}
	if !strings.Contains(out.String(), "drive life") {
		t.Errorf("capped run report lacks the drive-life line:\n%s", out.String())
	}
}

// TestAFRBudgetUpgradesSelector checks the selector upgrade end to
// end: the reliability-sweep grid re-runs under a replacement AFR
// budget and the report names both constraints.
func TestAFRBudgetUpgradesSelector(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "reliability-sweep", "-afr-budget", "0.5", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "AFR <= 50%") {
		t.Errorf("report does not carry the AFR budget:\n%s", out.String())
	}
}

// TestFailureInjectionCLIDeterministic pins the reliability
// determinism contract: two runs of the failure-injection scenario at
// the same seed must print byte-identical reports.
func TestFailureInjectionCLIDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-scenario", "failure-injection", "-seed", "7"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", "failure-injection", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("failure-injection reports differ across identical runs")
	}
	if !strings.Contains(a.String(), "failures") {
		t.Errorf("failure-injection report lacks the failures line:\n%s", a.String())
	}
}

package main

import (
	"encoding/json"
	"io"
)

// metric is one reported figure. End-to-end metrics carry the bound by
// which a change may worsen their median before it counts as a
// regression; per-layer metrics carry none.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd is printed by every run with --trace 0: what a user of the
// simulator waits for and pays in memory. Each bound is at least three
// times the widest interquartile spread the repeat runs in NOTES.md
// showed on any workload; setup_s, with the fewest samples per run,
// gets the widest.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_p50", "s", "lower", 0.24},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is printed by every run with --trace 1. NOTES.md maps each
// to the end-to-end metric and workload it should move. A layer that
// does no work on a workload reports 0 there.
var perLayer = []metric{
	{"trace.op_s", "s", "lower", 0},
	{"workload.build_s", "s", "lower", 0},
	{"workload.ns_per_request", "ns", "lower", 0},
	{"core.pack_s", "s", "lower", 0},
	{"core.ns_per_item", "ns", "lower", 0},
	{"storage.run_s", "s", "lower", 0},
	{"storage.ns_per_request", "ns", "lower", 0},
	{"storage.fixed_ns_per_disk", "ns", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"farm.residual_s", "s", "lower", 0},
	{"farm.point_s_p50", "s", "lower", 0},
	{"control.overhead_s", "s", "lower", 0},
	{"control.windows", "count", "lower", 0},
	{"control.actions", "count", "lower", 0},
	{"obs.metrics_s", "s", "lower", 0},
	{"obs.telemetry_s", "s", "lower", 0},
	{"obs.trace_record_s", "s", "lower", 0},
	{"obs.trace_render_s", "s", "lower", 0},
	{"obs.trace_mb", "MB", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.page_faults_per_op", "count", "lower", 0},
	{"disk.spin_ups", "count", "lower", 0},
	{"model.power_saving", "ratio", "higher", 0},
	{"model.resp_p95_s", "s", "lower", 0},
	{"host.wall_s_p50", "s", "lower", 0},
	{"host.ref_s", "s", "lower", 0},
	{"host.steal_s", "s", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// runSeconds is how long one run measures ops. With set-up, a run of
// the heaviest workload takes about 30 s wall on the calibration host.
const runSeconds = 15

// normalisedNote records in BENCHMARK.json that a workload's times are
// divided by the reference kernel; repeat runs showed the division
// tightening the spread on every workload (NOTES.md).
const normalisedNote = "; times divided by the reference kernel"

// writeContract writes BENCHMARK.json: the command the benchmark runs
// as, its workloads and its metrics.
func writeContract(w io.Writer) error {
	type cMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type cWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var c struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []cWorkload `json:"workloads"`
		EndToEnd   []cMetric   `json:"end_to_end"`
		PerLayer   []cMetric   `json:"per_layer"`
	}
	c.Command = []string{"bash", "perfbench/run.sh"}
	c.Paths = []string{"perfbench"}
	c.RunSeconds = runSeconds
	for _, wl := range workloads {
		c.Workloads = append(c.Workloads, cWorkload{wl.name, wl.why + normalisedNote})
	}
	for _, m := range endToEnd {
		b := m.bound
		c.EndToEnd = append(c.EndToEnd, cMetric{m.name, m.unit, m.better, &b})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, cMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Observability identity suite: the obs layer is observation-only, so
// (1) installing a full observer — trace, telemetry, metrics — must
// not change a run's Metrics by a single byte, and (2) the observer's
// own output is part of the determinism contract: trace and telemetry
// bytes must be identical at any per-simulation worker count, for
// open-loop and controlled runs alike.
package farm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"diskpack/internal/control"
	"diskpack/internal/coord"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// observedRun executes run with a fresh full observer installed and
// returns the rendered trace and telemetry bytes.
func observedRun(t *testing.T, spec farm.Spec, seed int64, run func() error) (trace, telem []byte) {
	t.Helper()
	rec := obs.NewTraceRecorder()
	var tb bytes.Buffer
	tw := obs.NewTelemetryWriter(&tb)
	if err := tw.WriteHeader(obs.TelemetryHeader{Spec: spec.Name, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	prev := farm.SetRunObserver(&obs.RunObserver{
		Trace:     rec,
		Telemetry: tw,
		Metrics:   obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets()),
	})
	defer farm.SetRunObserver(prev)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rec.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), tb.Bytes()
}

func lookupSpec(t *testing.T, name string) farm.Spec {
	t.Helper()
	sc, ok := farm.Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	return sc.Spec
}

// TestObserverDoesNotPerturbMetrics pins the observation-only
// guarantee across the three run shapes: classic open-loop, streamed
// open-loop, and controlled.
func TestObserverDoesNotPerturbMetrics(t *testing.T) {
	const seed = 7
	for _, name := range []string{"hetero", "failure-injection", "controlled-bursty"} {
		t.Run(name, func(t *testing.T) {
			spec := lookupSpec(t, name)
			base, err := farm.Run(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			var m *farm.Metrics
			traceB, _ := observedRun(t, spec, seed, func() error {
				var err error
				m, err = farm.Run(spec, seed)
				return err
			})
			got, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("observer changed the run:\n--- bare\n%s\n--- observed\n%s", want, got)
			}
			if !json.Valid(traceB) {
				t.Error("trace output is not valid JSON")
			}
		})
	}
}

// TestObserverDoesNotPerturbSweeps extends the observation-only
// guarantee to the multi-run paths: with a metrics observer installed
// globally (what -metrics-addr does — the file sinks are single-run),
// a threshold sweep and the controller grid, run directly, through
// shard/merge, and through a loopback coordinator pool, all reproduce
// the bare RunSweep result exactly.
func TestObserverDoesNotPerturbSweeps(t *testing.T) {
	for _, sweep := range []farm.Sweep{{
		Name: "obs-sweep",
		Base: lookupSpec(t, "hetero"),
		Axes: []farm.Axis{{Kind: farm.AxisSpinThreshold, Values: []float64{30, 120, 600}}},
	}, controllerGrid(t)} {
		t.Run(sweep.Name, func(t *testing.T) { observedSweepsMatch(t, sweep) })
	}
}

func observedSweepsMatch(t *testing.T, sweep farm.Sweep) {
	bare, err := farm.RunSweep(sweep, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}

	prev := farm.SetRunObserver(&obs.RunObserver{
		Metrics: obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets()),
	})
	defer farm.SetRunObserver(prev)

	check := func(name string, res *farm.SweepResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: observed sweep differs from bare RunSweep", name)
		}
	}

	direct, err := farm.RunSweep(sweep, 9, 2)
	check("direct", direct, err)

	shards, err := farm.Shard(sweep, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var journals []string
	for _, m := range shards {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.result.jsonl", m.Index))
		j, done, err := farm.OpenPointJournal(path, m.Sweep, m.Seed)
		if err != nil {
			t.Fatal(err)
		}
		_, err = farm.RunShard(context.Background(), m, done, 2, j.Append)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		journals = append(journals, path)
	}
	merged, err := farm.Merge(journals)
	check("shard/merge", merged, err)

	pool := coord.PoolRunner(context.Background(), 2, coord.Config{}, coord.WorkerConfig{})
	pooled, err := pool(sweep, 9, 0)
	check("coordinator pool", pooled, err)
}

// TestObsOutputIdenticalAcrossWorkers pins the determinism of the
// observability output itself: for an open-loop streamed run and for a
// controlled scenario, trace and telemetry bytes are identical at any
// worker count.
func TestObsOutputIdenticalAcrossWorkers(t *testing.T) {
	const seed = 7
	cases := []struct {
		name string
		run  func(spec farm.Spec) func() error
		spec farm.Spec
	}{
		{
			name: "stream-hetero",
			run: func(spec farm.Spec) func() error {
				return func() error {
					_, err := farm.RunStream(spec, seed, 900, nil)
					return err
				}
			},
		},
		{
			name: "controlled-bursty",
			run: func(spec farm.Spec) func() error {
				return func() error {
					_, err := control.RunSpec(spec, seed)
					return err
				}
			},
		},
	}
	cases[0].spec = lookupSpec(t, "hetero")
	cases[1].spec = lookupSpec(t, "controlled-bursty")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var refTrace, refTelem []byte
			for i, workers := range workerCounts() {
				prev := farm.SetSimWorkers(workers)
				traceB, telemB := observedRun(t, c.spec, seed, c.run(c.spec))
				farm.SetSimWorkers(prev)
				if i == 0 {
					refTrace, refTelem = traceB, telemB
					if !json.Valid(refTrace) {
						t.Fatal("trace output is not valid JSON")
					}
					h, ws, err := obs.ReadTelemetry(bytes.NewReader(refTelem))
					if err != nil {
						t.Fatalf("telemetry unreadable: %v", err)
					}
					if h.Spec != c.spec.Name || len(ws) == 0 {
						t.Fatalf("telemetry header %+v with %d windows", h, len(ws))
					}
					continue
				}
				if !bytes.Equal(refTrace, traceB) {
					t.Errorf("workers=%d: trace bytes diverge from sequential", workers)
				}
				if !bytes.Equal(refTelem, telemB) {
					t.Errorf("workers=%d: telemetry bytes diverge from sequential", workers)
				}
			}
		})
	}
}

// Parallel identity suite: proves the group-sharded kernel is
// observationally identical to the sequential one by running every
// registered scenario — open-loop and controlled — at several worker
// counts and comparing the full Metrics JSON byte for byte. This is
// the test that makes sharding a simulation under a determinism
// guarantee safe: any ordering divergence anywhere (a tie broken on
// the wrong shard, a boundary actuation seen one window late, a merge
// that reorders a floating-point reduction) changes response
// quantiles, energy, or window-derived control actions, and shows up
// here.
package farm_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"diskpack/internal/control" // registers controlled-* scenarios and the controller sink factory
	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/storage"
)

// metricsAtWorkers runs one spec with the given per-simulation worker
// count and returns its canonical JSON.
func metricsAtWorkers(t *testing.T, spec farm.Spec, seed int64, workers int) []byte {
	t.Helper()
	prev := farm.SetSimWorkers(workers)
	defer farm.SetSimWorkers(prev)
	m, err := farm.Run(spec, seed)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", spec.Name, workers, err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("%s: marshal: %v", spec.Name, err)
	}
	return b
}

// workerCounts is the property grid: sequential, two parallel shapes,
// and whatever this machine calls "all cores".
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

func TestParallelIdentityAcrossScenarios(t *testing.T) {
	scenarios := farm.Scenarios()
	if len(scenarios) < 11 {
		t.Fatalf("only %d scenarios registered — controlled-* or reliability scenarios missing?", len(scenarios))
	}
	controlled := 0
	for _, sc := range scenarios {
		sc := sc
		if sc.Spec.Control != nil {
			controlled++
		}
		t.Run(sc.Name, func(t *testing.T) {
			const seed = 7
			ref := metricsAtWorkers(t, sc.Spec, seed, 1)
			for _, workers := range workerCounts()[1:] {
				got := metricsAtWorkers(t, sc.Spec, seed, workers)
				if !bytes.Equal(ref, got) {
					t.Fatalf("workers=%d metrics diverge from sequential\nseq: %s\npar: %s",
						workers, ref, got)
				}
			}
		})
	}
	if controlled == 0 {
		t.Error("no controlled-* scenario exercised — closed-loop identity unverified")
	}
	// The reorg controllers move files at window boundaries; on
	// hetero's two disk groups those moves cross shards.
	hetero, _ := farm.Lookup("hetero")
	for _, k := range []control.Kind{control.KindReorgFull, control.KindReorgIncremental, control.KindReorgAdaptive} {
		spec := hetero.Spec
		spec.Control = &farm.ControlSpec{Controller: k.String(), Epoch: 900}
		t.Run("hetero/"+k.String(), func(t *testing.T) {
			const seed = 7
			ref := metricsAtWorkers(t, spec, seed, 1)
			for _, workers := range workerCounts()[1:] {
				if got := metricsAtWorkers(t, spec, seed, workers); !bytes.Equal(ref, got) {
					t.Fatalf("workers=%d metrics diverge from sequential\nseq: %s\npar: %s",
						workers, ref, got)
				}
			}
		})
	}
}

// Streamed telemetry is the controllers' observation surface: every
// window a sink sees must be identical at any worker count, on a spec
// whose groups genuinely land on different shards.
func TestParallelStreamWindowsIdentical(t *testing.T) {
	sc, ok := farm.Lookup("hetero")
	if !ok {
		t.Fatal("hetero scenario not registered")
	}
	collect := func(workers int) (ws [][]byte, metrics []byte) {
		prev := farm.SetSimWorkers(workers)
		defer farm.SetSimWorkers(prev)
		m, err := farm.RunStream(sc.Spec, 7, 900, func(w *farm.Window, act *farm.Actuator) error {
			b, err := json.Marshal(w)
			if err != nil {
				return err
			}
			ws = append(ws, b)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return ws, b
	}
	refW, refM := collect(1)
	if len(refW) < 2 {
		t.Fatalf("only %d windows — spec too small to exercise the merge", len(refW))
	}
	for _, workers := range workerCounts()[1:] {
		gotW, gotM := collect(workers)
		if !bytes.Equal(refM, gotM) {
			t.Errorf("workers=%d: stream metrics diverge", workers)
		}
		if len(gotW) != len(refW) {
			t.Fatalf("workers=%d: %d windows, want %d", workers, len(gotW), len(refW))
		}
		for i := range refW {
			if !bytes.Equal(refW[i], gotW[i]) {
				t.Errorf("workers=%d: window %d diverges\nseq: %s\npar: %s",
					workers, i, refW[i], gotW[i])
			}
		}
	}
}

// The cache-fronted paper scenario is the canonical non-shardable
// spec: the partitioner must detect it (never approximate it), and the
// identity suite above already proves its results don't depend on the
// requested worker count.
func TestCachedScenarioRoutesSequential(t *testing.T) {
	sc, ok := farm.Lookup("paper-nersc-cache")
	if !ok {
		t.Fatal("paper-nersc-cache scenario not registered")
	}
	if sc.Spec.CacheBytes != 16*disk.GB {
		t.Fatalf("scenario cache is %d bytes — test premise broken", sc.Spec.CacheBytes)
	}
	tr, err := farm.BuildTrace(sc.Spec.Workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := farm.Plan(sc.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	reason := storage.ShardBlocker(tr, alloc.Assign, storage.Config{
		NumDisks:   alloc.DisksUsed,
		CacheBytes: sc.Spec.CacheBytes,
	})
	if reason == "" {
		t.Fatal("partitioner failed to flag the cache-fronted run as non-shardable")
	}
	t.Logf("fallback reason: %s", reason)
}

package control

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// hashCounter hashes and counts what it is given, so a trace of any
// size is pinned without being held in memory.
type hashCounter struct {
	h hash.Hash
	n int64
}

func (w *hashCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// TestScenarioTracesGolden renders the Chrome trace of every registered
// scenario that runs once, at seed 1, the way `disksim -scenario NAME
// -seed 1 -trace-out FILE` renders it: a controlled spec through
// RunSpec, an open-loop one streamed at DefaultEpoch so its window
// counters exist. Each trace's SHA-256 and byte length are pinned in
// testdata/traces.golden, so any change to the trace encoder or to
// what a run records shows up here. Regenerate with -update.
func TestScenarioTracesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering every scenario's trace takes a few seconds")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("trace golden compared only on amd64 (GOARCH=%s: Go may fuse multiply-adds)", runtime.GOARCH)
	}
	var lines []string
	for _, sc := range farm.Scenarios() {
		if sc.Grid != nil {
			continue
		}
		w := &hashCounter{h: sha256.New()}
		if err := renderScenarioTrace(sc.Spec, 1, w); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%s sha256=%x bytes=%d", sc.Name, w.h.Sum(nil), w.n))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "traces.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("traces drifted from %s (regenerate with -update):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// renderScenarioTrace runs spec at seed with a trace recorder attached
// and writes the recorder's Chrome trace to w.
func renderScenarioTrace(spec farm.Spec, seed int64, w *hashCounter) error {
	rec := obs.NewTraceRecorder()
	prev := farm.SetRunObserver(&obs.RunObserver{Trace: rec})
	defer farm.SetRunObserver(prev)
	var err error
	if spec.Control != nil {
		_, err = RunSpec(spec, seed)
	} else {
		_, err = farm.RunStream(spec, seed, DefaultEpoch, nil)
	}
	if err != nil {
		return err
	}
	return rec.WriteChromeTrace(w)
}

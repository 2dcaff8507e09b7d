// Kernel identity suite: pins what the simulation kernel does on every
// registered scenario — open-loop and controlled — at two seeds: the
// number of events it counts (sim.events, the figure perfbench divides
// by) and a hash of the full Metrics JSON, against
// testdata/kernel.golden, recorded while every idle timeout and
// spin-down end was still a queued kernel event. Disks now apply those
// transitions themselves when next touched, and the kernel counts each
// one as a step, so any transition charged at a different instant or
// rank, or counted twice or not at all, shows up here. Regenerate with
// -update.
package farm_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	_ "diskpack/internal/control" // registers controlled-* scenarios and the controller sink factory
	"diskpack/internal/farm"
	"diskpack/internal/obs"
)

// kernelLine runs one spec with a metrics sink attached and renders
// its golden line.
func kernelLine(t *testing.T, spec farm.Spec, seed int64) string {
	t.Helper()
	rm := obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
	prev := farm.SetRunObserver(&obs.RunObserver{Metrics: rm})
	defer farm.SetRunObserver(prev)
	m, err := farm.Run(spec, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("%s: marshal: %v", spec.Name, err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s seed=%d events=%.0f metrics=%x", spec.Name, seed, rm.SimEvents.Value(), sum[:8])
}

func TestKernelIdentityAcrossScenarios(t *testing.T) {
	scenarios := farm.Scenarios()
	if len(scenarios) < 9 {
		t.Fatalf("only %d scenarios registered — controlled-* scenarios missing?", len(scenarios))
	}
	lines := make([]string, 0, 2*len(scenarios))
	controlled := 0
	for _, sc := range scenarios {
		if sc.Spec.Control != nil {
			controlled++
		}
		t.Run(sc.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				lines = append(lines, kernelLine(t, sc.Spec, seed))
			}
		})
	}
	if controlled == 0 {
		t.Error("no controlled-* scenario exercised — closed-loop identity unverified")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("kernel golden compared only on amd64 (GOARCH=%s: Go may fuse multiply-adds)", runtime.GOARCH)
	}
	farm.CheckGolden(t, "kernel.golden", strings.Join(lines, "\n")+"\n")
}

// Kernel identity suite: proves the calendar-queue scheduler is
// observationally identical to the legacy binary heap by running every
// registered scenario — open-loop and controlled — under both kernels
// and comparing the full Metrics JSON byte for byte. This is the test
// that makes replacing the event queue under a determinism guarantee
// safe: any ordering divergence anywhere in a run (a tie broken
// differently, a cancelled timer firing) changes response quantiles,
// energy, or window-derived control actions, and shows up here.
package farm_test

import (
	"bytes"
	"encoding/json"
	"testing"

	_ "diskpack/internal/control" // registers controlled-* scenarios and the controller sink factory
	"diskpack/internal/farm"
	"diskpack/internal/sim"
)

// metricsBytes runs one spec under the selected kernel and returns its
// canonical JSON.
func metricsBytes(t *testing.T, spec farm.Spec, seed int64, legacy bool) []byte {
	t.Helper()
	prev := sim.SetLegacyKernel(legacy)
	defer sim.SetLegacyKernel(prev)
	m, err := farm.Run(spec, seed)
	if err != nil {
		t.Fatalf("%s (legacy=%v): %v", spec.Name, legacy, err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("%s: marshal: %v", spec.Name, err)
	}
	return b
}

func TestKernelIdentityAcrossScenarios(t *testing.T) {
	scenarios := farm.Scenarios()
	if len(scenarios) < 9 {
		t.Fatalf("only %d scenarios registered — controlled-* scenarios missing?", len(scenarios))
	}
	controlled := 0
	for _, sc := range scenarios {
		sc := sc
		if sc.Spec.Control != nil {
			controlled++
		}
		t.Run(sc.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				cal := metricsBytes(t, sc.Spec, seed, false)
				heap := metricsBytes(t, sc.Spec, seed, true)
				if !bytes.Equal(cal, heap) {
					t.Fatalf("seed %d: calendar-queue metrics diverge from legacy heap\ncalendar: %s\nheap:     %s",
						seed, cal, heap)
				}
			}
		})
	}
	if controlled == 0 {
		t.Error("no controlled-* scenario exercised — closed-loop identity unverified")
	}
}

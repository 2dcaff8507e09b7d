package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// -kind takes farm's workload kind names: synthetic, the spelling a
// spec file carries and the default, writes the Table 1 generator's
// trace; the retired table1 spelling and trace, which is replayed
// rather than generated, are refused with the names that work.
func TestKindSpellings(t *testing.T) {
	cfg := workload.DefaultSynthetic(2, 3)
	cfg.NumFiles = 100
	tr, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.Write(&want, tr); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-rate", "2", "-files", "100", "-seed", "3"}
	for _, args := range [][]string{append([]string{"-kind", "synthetic"}, flags...), flags} {
		var got bytes.Buffer
		if err := run(args, &got); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%v: wrote %d bytes that differ from the synthetic generator's %d", args, got.Len(), want.Len())
		}
	}
	for kind, msg := range map[string]string{
		"table1": `farm: unknown workload kind "table1" (have trace, synthetic, nersc, bursty)`,
		"trace":  "-kind trace is not generated (have synthetic, nersc, bursty)",
	} {
		err := run([]string{"-kind", kind}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("-kind %s: error %v, want one containing %q", kind, err, msg)
		}
	}
}

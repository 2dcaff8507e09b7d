package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeTrace writes a small generated trace whose packing is bound by
// load, not capacity, so the allocators disagree, and returns its path.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	cfg := workload.DefaultSynthetic(2, 1)
	cfg.NumFiles = 200
	cfg.MaxSize = 4 * disk.GB
	cfg.Duration = 200
	tr, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "small.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGolden packs one trace with every allocator and pins each report
// and its -assign map against testdata/diskpack.golden. Regenerate
// with -update.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	tr := writeTrace(t, dir)
	var got strings.Builder
	for _, algo := range []string{"pack", "pack2", "pack4", "pack8", "chp", "ffd", "firstfit", "bestfit", "random"} {
		assign := filepath.Join(dir, algo+".map")
		var out bytes.Buffer
		if err := run([]string{"-trace", tr, "-algo", algo, "-assign", assign}, &out); err != nil {
			t.Fatalf("-algo %s: %v", algo, err)
		}
		m, err := os.ReadFile(assign)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== -algo %s\n%sassign %s\n", algo,
			strings.ReplaceAll(out.String(), dir, "DIR"), strings.Join(strings.Fields(string(m)), " "))
	}
	checkGolden(t, "diskpack.golden", got.String())
}

// checkGolden diffs got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("output drifted from %s (regenerate with -update):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestUnknownAlgo: an allocator name outside farm's vocabulary fails
// with that vocabulary.
func TestUnknownAlgo(t *testing.T) {
	err := run([]string{"-trace", writeTrace(t, t.TempDir()), "-algo", "pack0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), farm.AlgoNames()) {
		t.Fatalf("-algo pack0: got %v, want an error listing %s", err, farm.AlgoNames())
	}
}

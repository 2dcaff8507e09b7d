package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultJSON canonicalizes a sweep result for byte comparison: if two
// results marshal to the same bytes, every point's spec, metrics (down
// to the per-disk breakdowns), and the selector's verdict are equal.
func resultJSON(t *testing.T, res *SweepResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// roundTripShard pushes a manifest through its JSON codec, as the CLI
// does between the planning and the worker machine.
func roundTripShard(t *testing.T, m ShardManifest) ShardManifest {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeShard(&buf, m); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return *dec
}

// runShardJournal runs a manifest into its point journal under dir,
// as -run-shard does on the worker machine, and returns the journal's
// path — the file the merging machine reads.
func runShardJournal(t *testing.T, m ShardManifest, dir string) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard-%03d.result.jsonl", m.Index))
	j, done, err := OpenPointJournal(path, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := RunShard(context.Background(), m, done, 2, j.Append); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestShardPartition(t *testing.T) {
	sweep := fixtureSweep() // 6 points
	for _, n := range []int{1, 2, 3, 7} {
		shards, err := Shard(sweep, 9, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("Shard(.., %d) returned %d manifests", n, len(shards))
		}
		seen := make(map[int]int)
		for i, m := range shards {
			if m.Index != i || m.Count != n || m.Seed != 9 {
				t.Fatalf("shard %d identity = %d/%d seed %d", i, m.Index, m.Count, m.Seed)
			}
			for _, p := range m.Points {
				if p.Index%n != i {
					t.Errorf("point %d on shard %d, want round-robin shard %d", p.Index, i, p.Index%n)
				}
				seen[p.Index]++
			}
		}
		if len(seen) != sweep.NumPoints() {
			t.Fatalf("n=%d covers %d of %d points", n, len(seen), sweep.NumPoints())
		}
		for idx, c := range seen {
			if c != 1 {
				t.Errorf("n=%d point %d owned by %d shards", n, idx, c)
			}
		}
		// n=7 over 6 points leaves the last shard empty; it must still
		// round-trip and run.
		if n > sweep.NumPoints() && len(shards[n-1].Points) != 0 {
			t.Errorf("shard %d of %d should be empty, has %d points", n-1, n, len(shards[n-1].Points))
		}
	}
}

// TestShardMergeByteIdentical is the core guarantee: for several shard
// counts, running every manifest (through its JSON codec, in reverse
// order) into its point journal and merging the journals (in rotated
// order) reproduces the single-process RunSweep result byte for byte.
func TestShardMergeByteIdentical(t *testing.T) {
	sweep := fixtureSweep()
	sweep.Select = Selector{Kind: SelectKnee}
	direct, err := RunSweep(sweep, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, direct)
	for _, n := range []int{1, 2, 3, 7} {
		shards, err := Shard(sweep, 9, n)
		if err != nil {
			t.Fatal(err)
		}
		// Run shards in reverse — completion order must not matter.
		dir := t.TempDir()
		paths := make([]string, n)
		for i := n - 1; i >= 0; i-- {
			paths[i] = runShardJournal(t, roundTripShard(t, shards[i]), dir)
		}
		// Merge in rotated order — input order must not matter either.
		rotated := append(append([]string(nil), paths[n/2:]...), paths[:n/2]...)
		merged, err := Merge(rotated)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, merged); got != want {
			t.Fatalf("n=%d: merged result differs from single-process RunSweep", n)
		}
	}
}

func TestShardPlanOnlyMerge(t *testing.T) {
	sweep := Sweep{
		Name: "plan",
		Base: Spec{Workload: testSpec().Workload, Alloc: AllocSpec{Kind: AllocPack, V: 4}},
		Axes: []Axis{
			{Kind: AxisCapL, Values: []float64{0.5, 0.8}},
			{Kind: AxisAllocKind, Values: []float64{float64(AllocPack), float64(AllocFirstFit)}},
		},
		PlanOnly: true,
	}
	direct, err := RunSweep(sweep, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Shard(sweep, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for _, m := range shards {
		paths = append(paths, runShardJournal(t, m, dir))
	}
	merged, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range merged.Points {
		if p.Metrics != nil || p.Alloc == nil {
			t.Fatalf("plan-only shard point %s payload: metrics=%v alloc=%v", p.Label, p.Metrics, p.Alloc)
		}
	}
	if resultJSON(t, merged) != resultJSON(t, direct) {
		t.Fatal("plan-only merge differs from single-process RunSweep")
	}
}

// TestShardResume pins the resume semantics: points already in the
// shard's journal are reused verbatim — proven by doctoring a journaled
// metric and watching the sentinel survive — only the missing points
// are recomputed and appended, and a done point the manifest does not
// own or the grid does not know is refused.
func TestShardResume(t *testing.T) {
	sweep := fixtureSweep()
	shards, err := Shard(sweep, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := shards[0]
	ctx := context.Background()
	full, err := RunShard(ctx, m, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("fixture shard too small to test resume: %d points", len(full))
	}

	// A crashed earlier run left a journal holding only the first
	// point, with a sentinel energy value no simulation would produce.
	path := filepath.Join(t.TempDir(), "shard-000.result.jsonl")
	j, _, err := OpenPointJournal(path, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	doctored := full[0]
	sentinel := *doctored.Metrics
	sentinel.Energy = 123456789
	doctored.Metrics = &sentinel
	if err := j.Append(doctored); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, done, err := OpenPointJournal(path, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rerun := 0
	resumed, err := RunShard(ctx, m, done, 0, func(pr ShardPointResult) error {
		rerun++
		return j.Append(pr)
	})
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rerun != len(full)-1 {
		t.Errorf("resume recomputed %d points, want %d", rerun, len(full)-1)
	}
	if len(resumed) != len(full) {
		t.Fatalf("resume produced %d points, want %d", len(resumed), len(full))
	}
	if resumed[0].Metrics.Energy != 123456789 {
		t.Errorf("resume re-ran point %d instead of reusing the journaled result", resumed[0].Index)
	}
	for i := 1; i < len(full); i++ {
		if fingerprint(resumed[i].Metrics) != fingerprint(full[i].Metrics) {
			t.Errorf("resumed point %d differs from the fresh run", resumed[i].Index)
		}
	}
	// The journal now holds the whole shard, the sentinel included.
	j, again, err := OpenPointJournal(path, m.Sweep, m.Seed)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(again) != len(full) {
		t.Fatalf("journal after the resume holds %d points, want %d", len(again), len(full))
	}
	if again[0].Metrics.Energy != 123456789 {
		t.Error("the journaled sentinel did not survive the resume")
	}

	// A done point whose label disagrees with the grid is a stale
	// result from some other sweep — refuse it rather than merge wrong
	// numbers.
	stale := full[0]
	stale.Label = "threshold=999s farm=8"
	if _, err := RunShard(ctx, m, []ShardPointResult{stale}, 0, nil); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("stale done point accepted: %v", err)
	}
	// A done point of another shard means the journal is that shard's.
	theirs := shards[1].Points[0]
	foreign := ShardPointResult{Index: theirs.Index, Label: theirs.Label, Metrics: full[0].Metrics}
	if _, err := RunShard(ctx, m, []ShardPointResult{foreign}, 0, nil); err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Errorf("another shard's done point accepted: %v", err)
	}
}

func TestShardValidation(t *testing.T) {
	sweep := fixtureSweep()
	if _, err := Shard(sweep, 1, 0); err == nil {
		t.Error("Shard with n=0 accepted")
	}
	custom := sweep
	custom.Axes = append(custom.Axes, Axis{Kind: AxisCustom, Labels: []string{"a"},
		Apply: func(*Spec, int, []int) error { return nil }})
	if _, err := Shard(custom, 1, 2); err == nil || !strings.Contains(err.Error(), "custom axes") {
		t.Errorf("custom-axis sweep sharded: %v", err)
	}

	shards, err := Shard(sweep, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A tampered manifest must not run.
	tampered := shards[0]
	tampered.Points = append([]ShardPoint(nil), shards[0].Points...)
	tampered.Points[0].SeedOffset = 999
	if _, err := RunShard(context.Background(), tampered, nil, 0, nil); err == nil || !strings.Contains(err.Error(), "compiled grid") {
		t.Errorf("tampered manifest ran: %v", err)
	}

	dir := t.TempDir()
	p0 := runShardJournal(t, shards[0], dir)
	p1 := runShardJournal(t, shards[1], dir)
	// Missing shard: the error must name the first uncovered point.
	if _, err := Merge([]string{p0}); err == nil || !strings.Contains(err.Error(), "missing point") {
		t.Errorf("incomplete merge accepted: %v", err)
	}
	// Duplicated shard: same point twice, naming both journals.
	data, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(dir, "copy.result.jsonl")
	if err := os.WriteFile(dup, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]string{p0, p1, dup}); err == nil || !strings.Contains(err.Error(), "both "+p0+" and "+dup) {
		t.Errorf("duplicate merge accepted: %v", err)
	}
	// Mixed seeds: journals from different runs must not combine, and
	// the error names the odd one out.
	wrongSeed := filepath.Join(dir, "seed10.result.jsonl")
	j, _, err := OpenPointJournal(wrongSeed, sweep, 10)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Merge([]string{p0, wrongSeed}); err == nil || !strings.Contains(err.Error(), wrongSeed+" was written for a different sweep or seed") {
		t.Errorf("mixed-seed merge accepted: %v", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
}

func TestShardFileValidation(t *testing.T) {
	if _, err := DecodeShard(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Error("unknown manifest field decoded")
	}
	if _, err := DecodeShard(strings.NewReader(`{"Index": 2, "Count": 1}`)); err == nil {
		t.Error("out-of-range shard index decoded")
	}
	var buf bytes.Buffer
	if err := EncodeShard(&buf, ShardManifest{Index: 0, Count: 0, Sweep: fixtureSweep()}); err == nil {
		t.Error("zero-count manifest encoded")
	}
}

func TestSweepReselect(t *testing.T) {
	res, err := RunSweep(fixtureSweep(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != -1 {
		t.Fatalf("selector-less sweep picked %d", res.Best)
	}
	if err := res.Reselect(Selector{Kind: SelectMinEnergySLO, MaxP95: 1e9}); err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 {
		t.Error("Reselect with an unbounded SLO picked nothing")
	}
	if res.Sweep.Select.Kind != SelectMinEnergySLO {
		t.Error("Reselect did not record the new rule")
	}
	if err := res.Reselect(Selector{Kind: SelectMinEnergySLO}); err == nil {
		t.Error("Reselect accepted an SLO selector without a budget")
	}
}

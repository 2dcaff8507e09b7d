package farm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAssembleMatchesRunSweep proves the streaming seam end to end:
// compiling the grid, running every point individually (in reverse
// order, as a scattered worker pool might), and assembling the results
// reproduces the single-process RunSweep result byte for byte.
func TestAssembleMatchesRunSweep(t *testing.T) {
	sweep := fixtureSweep()
	sweep.Select = Selector{Kind: SelectKnee}
	direct, err := RunSweep(sweep, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]ShardPointResult, 0, c.NumPoints())
	for i := c.NumPoints() - 1; i >= 0; i-- {
		pr, err := c.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, pr)
	}
	assembled, err := c.Assemble(results)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, assembled) != resultJSON(t, direct) {
		t.Fatal("assembled result differs from single-process RunSweep")
	}
}

// TestMergeFromStreamingSeam covers Merge over journals whose points
// were produced one at a time through the seam, out of order, rather
// than by RunShard — the path a coordinator's journal takes.
func TestMergeFromStreamingSeam(t *testing.T) {
	sweep := fixtureSweep()
	sweep.Select = Selector{Kind: SelectKnee}
	direct, err := RunSweep(sweep, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	dir := t.TempDir()
	paths := make([]string, n)
	journals := make([]*PointJournal, n)
	for s := range journals {
		paths[s] = filepath.Join(dir, fmt.Sprintf("part-%d.jsonl", s))
		if journals[s], _, err = OpenPointJournal(paths[s], sweep, 9); err != nil {
			t.Fatal(err)
		}
	}
	for i := c.NumPoints() - 1; i >= 0; i-- {
		pr, err := c.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := journals[i%n].Append(pr); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range journals {
		j.Close()
	}
	merged, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, merged) != resultJSON(t, direct) {
		t.Fatal("merge of seam-produced journals differs from single-process RunSweep")
	}
}

func TestCompiledSweepChecks(t *testing.T) {
	c, err := Compile(fixtureSweep(), 9)
	if err != nil {
		t.Fatal(err)
	}
	good := c.Descriptor(0)
	if err := c.Check(good); err != nil {
		t.Errorf("Check of a genuine descriptor: %v", err)
	}
	bad := good
	bad.SeedOffset = 999
	if err := c.Check(bad); err == nil || !strings.Contains(err.Error(), "compiled grid") {
		t.Errorf("tampered descriptor accepted: %v", err)
	}
	if err := c.Check(ShardPoint{Index: c.NumPoints()}); err == nil {
		t.Error("out-of-range descriptor accepted")
	}
	pr, err := c.RunPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckResult(pr); err != nil {
		t.Errorf("CheckResult of a genuine result: %v", err)
	}
	relabeled := pr
	relabeled.Label = "threshold=999s farm=8"
	if err := c.CheckResult(relabeled); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("relabeled result accepted: %v", err)
	}
	empty := pr
	empty.Metrics = nil
	if err := c.CheckResult(empty); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("payload-less result accepted: %v", err)
	}
	if _, err := c.RunPoint(c.NumPoints()); err == nil {
		t.Error("RunPoint outside the grid succeeded")
	}
	// Assemble rejects duplicates and holes with named points.
	if _, err := c.Assemble([]ShardPointResult{pr, pr}); err == nil || !strings.Contains(err.Error(), "more than one") {
		t.Errorf("duplicate assembly accepted: %v", err)
	}
	if _, err := c.Assemble([]ShardPointResult{pr}); err == nil || !strings.Contains(err.Error(), "missing point") {
		t.Errorf("incomplete assembly accepted: %v", err)
	}
}

// TestRunShardSink pins the streaming contract a shard's journal
// depends on: every newly computed point reaches the sink exactly once,
// done points are not re-emitted, and cancelling the context aborts
// with ctx.Err() after the in-flight points have streamed.
func TestRunShardSink(t *testing.T) {
	sweep := fixtureSweep()
	shards, err := Shard(sweep, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := shards[0]
	var streamed []ShardPointResult
	full, err := RunShard(context.Background(), m, nil, 0, func(pr ShardPointResult) error {
		streamed = append(streamed, pr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(m.Points) {
		t.Fatalf("sink saw %d points, shard owns %d", len(streamed), len(m.Points))
	}
	seen := make(map[int]bool)
	for _, pr := range streamed {
		if seen[pr.Index] {
			t.Errorf("point %d streamed twice", pr.Index)
		}
		seen[pr.Index] = true
		if pr.Metrics == nil {
			t.Errorf("point %d streamed without its payload", pr.Index)
		}
	}

	// Resume: with every point done, nothing is recomputed so nothing
	// streams.
	streamed = nil
	if _, err := RunShard(context.Background(), m, full, 0, func(pr ShardPointResult) error {
		streamed = append(streamed, pr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 0 {
		t.Errorf("fully reused shard streamed %d points", len(streamed))
	}

	// A cancelled context aborts the run with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunShard(ctx, m, nil, 0, nil); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}

	// A sink failure aborts the run.
	if _, err := RunShard(context.Background(), m, nil, 1, func(ShardPointResult) error {
		return os.ErrClosed
	}); err == nil || !strings.Contains(err.Error(), "streaming point") {
		t.Errorf("sink failure not surfaced: %v", err)
	}
}

func TestPointJournal(t *testing.T) {
	sweep := fixtureSweep()
	c, err := Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "points.journal")

	j, recovered, err := OpenPointJournal(path, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d points", len(recovered))
	}
	p0, err := c.RunPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.RunPoint(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []ShardPointResult{p0, p1} {
		if err := j.Append(pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn final line must be discarded,
	// and the journal must keep working afterwards.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Index": 5, "Label": "torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, recovered, err = OpenPointJournal(path, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || recovered[0].Index != 0 || recovered[1].Index != 1 {
		t.Fatalf("recovered %+v, want points 0 and 1", recovered)
	}
	if recovered[0].Metrics == nil || recovered[0].Metrics.Energy != p0.Metrics.Energy {
		t.Error("recovered point 0 lost its payload")
	}
	p2, err := c.RunPoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(p2); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, recovered, err = OpenPointJournal(path, sweep, 9); err != nil {
		t.Fatal(err)
	} else if len(recovered) != 3 {
		t.Fatalf("after torn-line recovery and a new append, recovered %d points, want 3", len(recovered))
	}

	// A journal written for another seed or sweep must be refused.
	if _, _, err := OpenPointJournal(path, sweep, 10); err == nil || !strings.Contains(err.Error(), "different sweep or seed") {
		t.Errorf("wrong-seed journal accepted: %v", err)
	}
	other := sweep
	other.Base.CacheBytes = 1 << 30
	if _, _, err := OpenPointJournal(path, other, 9); err == nil || !strings.Contains(err.Error(), "different sweep or seed") {
		t.Errorf("wrong-sweep journal accepted: %v", err)
	}

	// A complete-but-undecodable line is corruption, not a torn append:
	// an undecodable header, or an empty line after a valid journal.
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"not json\n", string(valid) + "\n"} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenPointJournal(path, sweep, 9); err == nil || !strings.Contains(err.Error(), "delete it") {
			t.Errorf("corrupt journal accepted: %v", err)
		}
	}
}

func TestFingerprint(t *testing.T) {
	sweep := fixtureSweep()
	fp := Fingerprint(sweep, 9)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", fp)
	}
	if fp != Fingerprint(sweep, 9) {
		t.Error("fingerprint not stable")
	}
	if fp == Fingerprint(sweep, 10) {
		t.Error("seed change did not change the fingerprint")
	}
	other := sweep
	other.Base.CacheBytes = 1 << 30
	if fp == Fingerprint(other, 9) {
		t.Error("sweep change did not change the fingerprint")
	}
	c, err := Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != fp {
		t.Error("CompiledSweep.Fingerprint disagrees with Fingerprint")
	}
}

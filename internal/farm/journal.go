package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"diskpack/internal/obs"
)

// Crash-tolerant incremental persistence of completed sweep points: a
// shard's result (cmd/disksim -run-shard), the coordinator's journal
// (internal/coord), and Merge's input. The format is one JSON object
// per line: a header binding the journal to its (sweep, seed), then
// one ShardPointResult per completed point. Every append is synced
// before it returns, so a crash at any moment loses at most the point
// being written; reading discards a torn final line, and opening
// refuses a journal written for a different sweep or seed rather than
// resuming wrong numbers.

// PointJournal is an open journal positioned for appending.
type PointJournal struct {
	path string
	f    *os.File
}

// journalHeader is the first line of every journal: the full grid
// declaration, so recovery can prove the journaled points belong to
// the sweep being resumed.
type journalHeader struct {
	Seed  int64
	Sweep Sweep
}

// sameRun reports whether two headers name one (sweep, seed). Labels
// encode only the axis values and can collide across edits of the base
// spec, so the whole declaration is compared through its JSON.
func sameRun(a, b journalHeader) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// OpenPointJournal opens (or creates) the journal at path for the given
// sweep and seed, returning the points previously journaled there —
// deduplicated, first write wins — so the caller can skip re-running
// them. A torn final line (a crash mid-append) is discarded and
// overwritten by the next append; a journal whose header names a
// different sweep or seed is refused. Callers validate the recovered
// points against their compiled grid (RunShard and the coordinator both
// do), so a journal from a diverged build still fails loudly.
func OpenPointJournal(path string, sweep Sweep, seed int64) (_ *PointJournal, _ []ShardPointResult, err error) {
	if err := Shardable(sweep); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	want := journalHeader{Seed: seed, Sweep: sweep}
	h, points, end, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if h != nil && !sameRun(*h, want) {
		return nil, nil, fmt.Errorf("farm: journal %s was written for a different sweep or seed — delete it to start over", path)
	}
	// Drop any torn tail so the next append starts on a line boundary.
	if err := f.Truncate(end); err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(end, 0); err != nil {
		return nil, nil, err
	}
	j := &PointJournal{path: path, f: f}
	if h == nil {
		if err := j.appendLine(want); err != nil {
			return nil, nil, err
		}
		// A fresh journal's directory entry needs its own fsync, or a
		// power loss could take the whole file — every synced append
		// with it — and void the one-point crash window.
		d, err := os.Open(filepath.Dir(path))
		if err == nil {
			err = d.Sync()
			d.Close()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("farm: journal %s: syncing directory: %w", path, err)
		}
	}
	return j, points, nil
}

// readJournal reads the journal at path through obs.SplitLines: its
// header (nil when the file holds no complete line), its points —
// deduplicated, first write wins — and the byte offset after the last
// complete line. Everything beyond that offset is a torn append.
func readJournal(path string) (*journalHeader, []ShardPointResult, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	lines, end := obs.SplitLines(data)
	if len(lines) == 0 {
		return nil, nil, 0, nil
	}
	var h journalHeader
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, nil, 0, fmt.Errorf("farm: journal %s header: %w — delete it to start over", path, err)
	}
	var points []ShardPointResult
	seen := make(map[int]bool)
	for _, line := range lines[1:] {
		var pr ShardPointResult
		if err := json.Unmarshal(line, &pr); err != nil {
			// A complete line that does not decode is corruption, not
			// a torn append (each append writes its newline last).
			return nil, nil, 0, fmt.Errorf("farm: journal %s is corrupt: %w — delete it to start over", path, err)
		}
		if !seen[pr.Index] {
			seen[pr.Index] = true
			points = append(points, pr)
		}
	}
	return &h, points, int64(end), nil
}

// Append journals one completed point and syncs it to disk before
// returning, so an acknowledged point survives any subsequent crash.
func (j *PointJournal) Append(pr ShardPointResult) error {
	return j.appendLine(pr)
}

// appendLine writes v as one line (obs.WriteLine) and syncs.
func (j *PointJournal) appendLine(v any) error {
	if err := obs.WriteLine(j.f, v); err != nil {
		return fmt.Errorf("farm: journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("farm: journal %s: %w", j.path, err)
	}
	return nil
}

// Close closes the journal file. The file stays on disk: it is the
// record of the points, which a later open resumes from and Merge
// reads.
func (j *PointJournal) Close() error { return j.f.Close() }

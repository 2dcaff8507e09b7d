package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"diskpack/internal/obs"
)

// Crash-tolerant incremental persistence of completed sweep points,
// shared by cmd/disksim's -run-shard partial file and the coordinator's
// journal (internal/coord). The format is one JSON object per line: a
// header binding the journal to its (sweep, seed), then one
// ShardPointResult per completed point. Every append is synced before
// it returns, so a crash at any moment loses at most the point being
// written; recovery discards a torn final line and refuses a journal
// written for a different sweep or seed rather than resuming wrong
// numbers.

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

// OpenPointJournal opens (or creates) the journal at path for the given
// sweep and seed, returning the points previously journaled there —
// deduplicated, first write wins — so the caller can skip re-running
// them. A torn final line (a crash mid-append) is discarded and
// overwritten by the next append; a journal whose header names a
// different sweep or seed is refused. Callers validate the recovered
// points against their compiled grid (RunShard and the coordinator both
// do), so a journal from a diverged build still fails loudly.
func OpenPointJournal(path string, sweep Sweep, seed int64) (*PointJournal, []ShardPointResult, error) {
	if err := shardableSweep(sweep); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &PointJournal{path: path, f: f}
	points, end, err := j.recover(sweep, seed)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop any torn tail so the next append starts on a line boundary.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if end == 0 {
		if err := j.appendLine(journalHeader{Seed: seed, Sweep: sweep}); err != nil {
			f.Close()
			return nil, nil, err
		}
		// A fresh journal's directory entry needs its own fsync, or a
		// power loss could take the whole file — every synced append
		// with it — and void the one-point crash window.
		if err := SyncParentDir(path); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("farm: journal %s: syncing directory: %w", path, err)
		}
	}
	return j, points, nil
}

// SyncParentDir fsyncs the directory holding path, making its entry
// for a just-created or just-renamed file durable. Shared by the
// journal and by cmd/disksim's result-file rename, so the
// rename-durability rule lives in one place.
func SyncParentDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// recover reads the journal's complete lines (obs.SplitLines),
// validating the header and collecting the journaled points. It returns
// the byte offset after the last complete line — everything beyond it
// is a torn append.
func (j *PointJournal) recover(sweep Sweep, seed int64) ([]ShardPointResult, int64, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, 0, err
	}
	lines, end := obs.SplitLines(data)
	if len(lines) == 0 {
		return nil, 0, nil
	}
	var h journalHeader
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, 0, fmt.Errorf("farm: journal %s header: %w — delete it to start over", j.path, err)
	}
	wantSweep, err := json.Marshal(sweep)
	if err != nil {
		return nil, 0, err
	}
	gotSweep, err := json.Marshal(h.Sweep)
	if err != nil {
		return nil, 0, err
	}
	if h.Seed != seed || !bytes.Equal(gotSweep, wantSweep) {
		return nil, 0, fmt.Errorf("farm: journal %s was written for a different sweep or seed — delete it to start over", j.path)
	}
	var points []ShardPointResult
	seen := make(map[int]bool)
	for _, line := range lines[1:] {
		var pr ShardPointResult
		if err := json.Unmarshal(line, &pr); err != nil {
			// A complete line that does not decode is corruption, not
			// a torn append (each append writes its newline last).
			return nil, 0, fmt.Errorf("farm: journal %s is corrupt: %w — delete it to start over", j.path, err)
		}
		if !seen[pr.Index] {
			seen[pr.Index] = true
			points = append(points, pr)
		}
	}
	return points, int64(end), nil
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

// Close closes the journal file. The file stays on disk — callers
// delete it (Remove) once its points are persisted elsewhere.
func (j *PointJournal) Close() error { return j.f.Close() }

// Remove deletes the journal file; call it after the final result has
// been durably written elsewhere.
func (j *PointJournal) Remove() error { return os.Remove(j.path) }

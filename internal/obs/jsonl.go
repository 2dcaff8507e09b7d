package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// One framing for every JSONL log the simulator writes — telemetry,
// span logs, and farm's point journal. A writer emits each record,
// newline included, with a single Write and no buffering layer, so a
// killed process tears at most the line in flight. Readers apply one
// rule: only newline-terminated lines count. An unterminated tail is
// that torn record and is dropped; a complete line that does not
// decode — an empty line included — is corruption and an error.

// WriteLine marshals v and writes it as one JSONL line with a single
// Write call.
func WriteLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// SplitLines returns data's newline-terminated lines (without their
// newlines) and the offset just past the last one. Anything beyond end
// is an unterminated, torn record.
func SplitLines(data []byte) (lines [][]byte, end int) {
	for {
		i := bytes.IndexByte(data[end:], '\n')
		if i < 0 {
			return lines, end
		}
		lines = append(lines, data[end:end+i])
		end += i + 1
	}
}

// logFormat names one schema-headed JSONL log for its reader: the
// schema identity its header line must carry, and the words its errors
// use for the log and for one record.
type logFormat struct {
	kind, record string
	schema       string
	version      int
}

// logHeader is a decoded header line that reports its schema identity.
type logHeader interface {
	identity() (schema string, version int)
}

// readLog parses a schema-headed JSONL log: the first complete line
// decodes into h and must carry f's schema and version, and every
// further complete line decodes into one R.
func readLog[R any](r io.Reader, f logFormat, h logHeader) ([]R, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines, _ := SplitLines(data)
	if len(lines) == 0 {
		return nil, fmt.Errorf("obs: empty %s stream", f.kind)
	}
	if err := json.Unmarshal(lines[0], h); err != nil {
		return nil, fmt.Errorf("obs: %s header: %w", f.kind, err)
	}
	switch schema, version := h.identity(); {
	case schema != f.schema:
		return nil, fmt.Errorf("obs: %s schema %q, want %q", f.kind, schema, f.schema)
	case version != f.version:
		return nil, fmt.Errorf("obs: %s version %d, reader understands %d", f.kind, version, f.version)
	}
	var recs []R
	for i, line := range lines[1:] {
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("obs: %s %s %d: %w", f.kind, f.record, i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

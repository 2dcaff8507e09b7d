package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recordedSpanLog records a small span log: a header, a parent span
// with a child, and an instant event.
func recordedSpanLog(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, advance := startedRecorder(t, &buf)
	ph := rec.Begin(0, 1, "point", map[string]any{"label": "t=30"})
	advance(10 * time.Millisecond)
	rec.BeginChild(ph, "run", nil).End(SpanOK, map[string]any{"events": 12})
	ph.End(SpanOK, nil)
	rec.Event(-1, 1, "retry", SpanError, nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenTelemetry(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "telemetry.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLogReadersTornTail pins the one torn-tail rule both log readers
// share: an unterminated fragment is the torn record of a killed
// writer and is dropped, while a complete line that does not decode —
// an empty line included — is corruption and an error.
func TestLogReadersTornTail(t *testing.T) {
	readers := []struct {
		name    string
		log     []byte
		records int
		read    func(io.Reader) (int, error)
	}{
		{"spans", recordedSpanLog(t), 3, func(r io.Reader) (int, error) {
			log, err := ReadSpans(r)
			if err != nil {
				return 0, err
			}
			return len(log.Spans), nil
		}},
		{"telemetry", goldenTelemetry(t), 2, func(r io.Reader) (int, error) {
			_, ws, err := ReadTelemetry(r)
			return len(ws), err
		}},
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			full := string(rd.log)
			lines := strings.SplitAfter(full, "\n")
			last := lines[len(lines)-2]
			header := lines[0]
			// A SIGKILL mid-write leaves an unterminated fragment.
			n, err := rd.read(strings.NewReader(full + last[:len(last)/2]))
			if err != nil {
				t.Fatalf("torn tail should be tolerated: %v", err)
			}
			if n != rd.records {
				t.Fatalf("got %d records, want %d", n, rd.records)
			}
			// A complete but malformed line is corruption, not a torn tail.
			if _, err := rd.read(strings.NewReader(full + "not json\n")); err == nil {
				t.Fatal("malformed complete line should error")
			}
			if _, err := rd.read(strings.NewReader(header + "\n" + full[len(header):])); err == nil {
				t.Fatal("empty line should error")
			}
		})
	}
}

// countingWriter records each Write call it receives.
type countingWriter struct{ writes [][]byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestTelemetryWritesEachWindow pins the unbuffered framing: every
// record reaches the underlying writer as one whole line in one Write,
// before Close, so a killed run keeps every window that closed.
func TestTelemetryWritesEachWindow(t *testing.T) {
	h, ws := sampleTelemetry()
	var cw countingWriter
	tw := NewTelemetryWriter(&cw)
	if err := tw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if err := tw.WriteWindow(&ws[i]); err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != i+2 {
			t.Fatalf("after window %d: %d writes, want %d", i, len(cw.writes), i+2)
		}
	}
	got := bytes.Join(cw.writes, nil)
	if !bytes.Equal(got, goldenTelemetry(t)) {
		t.Errorf("unbuffered stream differs from golden:\n%s", got)
	}
	for i, w := range cw.writes {
		if bytes.IndexByte(w, '\n') != len(w)-1 {
			t.Errorf("write %d is not one whole line: %q", i, w)
		}
	}
}

// logReads is everything both log readers return for one input.
type logReads struct {
	header   *TelemetryHeader
	windows  []Window
	telemErr string
	spans    *SpanLog
	spanErr  string
}

func readLogs(data []byte) logReads {
	var r logReads
	var err error
	if r.header, r.windows, err = ReadTelemetry(bytes.NewReader(data)); err != nil {
		r.telemErr = err.Error()
	}
	if r.spans, err = ReadSpans(bytes.NewReader(data)); err != nil {
		r.spanErr = err.Error()
	}
	return r
}

// FuzzReadLogs feeds arbitrary bytes to ReadTelemetry and ReadSpans.
// Neither may panic, and appending bytes without a newline — a torn
// record — never changes what either reader returns.
func FuzzReadLogs(f *testing.F) {
	golden, spans := goldenTelemetry(f), recordedSpanLog(f)
	f.Add(golden, []byte(`{"Index":2,"Sta`))
	f.Add(spans, []byte(`{"ID":"dead","Point":1,"Pha`))
	f.Add(golden[:len(golden)-1], []byte("}"))
	f.Add([]byte("\n"), []byte(""))
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		tail = bytes.ReplaceAll(tail, []byte("\n"), nil)
		torn := append(data[:len(data):len(data)], tail...)
		if a, b := readLogs(data), readLogs(torn); !reflect.DeepEqual(a, b) {
			t.Fatalf("appending %q changed what the readers return:\n%+v\n%+v", tail, a, b)
		}
	})
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a controllable now func starting at a fixed epoch.
func fakeClock() (func() time.Time, func(d time.Duration)) {
	now := time.Unix(1000, 0)
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func startedRecorder(t testing.TB, buf *bytes.Buffer) (*SpanRecorder, func(time.Duration)) {
	t.Helper()
	rec := NewSpanRecorder(buf)
	now, advance := fakeClock()
	rec.SetNow(now)
	if err := rec.Start(SpanHeader{Track: "w1", Role: "worker", SweepHash: "abcd", Seed: 7, Points: 6}); err != nil {
		t.Fatal(err)
	}
	return rec, advance
}

func TestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec, advance := startedRecorder(t, &buf)

	ph := rec.Begin(2, 1, "point", map[string]any{"label": "t=30"})
	advance(10 * time.Millisecond)
	rh := rec.BeginChild(ph, "run", nil)
	advance(100 * time.Millisecond)
	rh.End(SpanOK, nil)
	sh := rec.BeginChild(ph, "submit", nil)
	advance(5 * time.Millisecond)
	sh.End(SpanOK, map[string]any{"duplicate": false})
	ph.End(SpanOK, nil)
	rec.Event(-1, 1, "retry", SpanError, map[string]any{"path": "/v1/submit"})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := log.Header
	if h.Schema != SpanSchema || h.Version != SpanVersion {
		t.Fatalf("header schema %q v%d", h.Schema, h.Version)
	}
	if h.Track != "w1" || h.Role != "worker" || h.SweepHash != "abcd" || h.Seed != 7 || h.Points != 6 {
		t.Fatalf("header mismatch: %+v", h)
	}
	if h.StartUnixNano != time.Unix(1000, 0).UnixNano() {
		t.Fatalf("StartUnixNano = %d", h.StartUnixNano)
	}
	if len(log.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(log.Spans))
	}
	byPhase := map[string]Span{}
	for _, sp := range log.Spans {
		byPhase[sp.Phase] = sp
	}
	point, run := byPhase["point"], byPhase["run"]
	if point.ID != SpanID("abcd", 2, 1, "point") {
		t.Errorf("point ID %q not deterministic", point.ID)
	}
	if run.Parent != point.ID {
		t.Errorf("run parent %q, want %q", run.Parent, point.ID)
	}
	if run.End-run.Start != 0.1 {
		t.Errorf("run duration %v, want 0.1", run.End-run.Start)
	}
	if point.Args["label"] != "t=30" {
		t.Errorf("point args %v", point.Args)
	}
	if got := byPhase["submit"].Args["duplicate"]; got != false {
		t.Errorf("submit args merged wrong: %v", got)
	}
	ev := byPhase["retry"]
	if ev.Start != ev.End || ev.Status != SpanError || ev.Point != -1 {
		t.Errorf("event span wrong: %+v", ev)
	}
}

func TestSpanCloseAbortsOpen(t *testing.T) {
	var buf bytes.Buffer
	rec, advance := startedRecorder(t, &buf)
	ph := rec.Begin(3, 2, "point", nil)
	rec.BeginChild(ph, "run", nil)
	advance(time.Second)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	log, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(log.Spans))
	}
	for _, sp := range log.Spans {
		if sp.Status != SpanAborted {
			t.Errorf("span %s status %q, want aborted", sp.Phase, sp.Status)
		}
		if sp.End != 1 {
			t.Errorf("span %s end %v, want 1", sp.Phase, sp.End)
		}
	}
	// Aborted tail is flushed in replay-stable order: point before run.
	if log.Spans[0].Phase != "point" || log.Spans[1].Phase != "run" {
		t.Errorf("abort order: %s, %s", log.Spans[0].Phase, log.Spans[1].Phase)
	}
}

func TestReadSpansSchemaEnforced(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("")); err == nil {
		t.Fatal("empty stream should error")
	}
	if _, err := ReadSpans(strings.NewReader(`{"Schema":"other","Version":1}` + "\n")); err == nil {
		t.Fatal("wrong schema should error")
	}
	bad := `{"Schema":"` + SpanSchema + `","Version":99}` + "\n"
	if _, err := ReadSpans(strings.NewReader(bad)); err == nil {
		t.Fatal("wrong version should error")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var rec *SpanRecorder
	rec.SetNow(time.Now)
	if err := rec.Start(SpanHeader{}); err != nil {
		t.Fatal(err)
	}
	h := rec.Begin(0, 1, "point", nil)
	h.End(SpanOK, nil)
	rec.BeginChild(h, "run", nil).End(SpanOK, nil)
	rec.Event(0, 1, "retry", SpanError, nil)
	if err := rec.Record(Span{}); err != nil {
		t.Fatal(err)
	}
	if rec.Since(time.Now()) != 0 || rec.Hash() != "" {
		t.Fatal("nil accessors should zero")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Recording before Start is a silent no-op, not a crash.
	var buf bytes.Buffer
	live := NewSpanRecorder(&buf)
	live.Begin(0, 1, "point", nil).End(SpanOK, nil)
	live.Event(0, 1, "retry", SpanError, nil)
	if buf.Len() != 0 {
		t.Fatalf("unstarted recorder wrote %q", buf.String())
	}
}

func makeLog(track, role string, spans ...Span) SpanLog {
	return SpanLog{
		Header: SpanHeader{Schema: SpanSchema, Version: SpanVersion, Track: track,
			Role: role, SweepHash: "abcd", Seed: 7, Points: 4, StartUnixNano: 1e9},
		Spans: spans,
	}
}

func TestMergeSpansOrdering(t *testing.T) {
	w2 := makeLog("w2", "worker",
		Span{ID: "c", Point: 1, Attempt: 2, Phase: "point"},
		Span{ID: "d", Point: 0, Attempt: 1, Phase: "run"},
		Span{ID: "e", Point: 0, Attempt: 1, Phase: "point"},
	)
	w1 := makeLog("w1", "worker", Span{ID: "a", Point: 3, Attempt: 1, Phase: "point"})
	co := makeLog("coordinator", "coordinator", Span{ID: "b", Point: 0, Attempt: 1, Phase: "grant"})

	for _, order := range [][]SpanLog{{w2, w1, co}, {co, w1, w2}} {
		merged, err := MergeSpans(order)
		if err != nil {
			t.Fatal(err)
		}
		if merged[0].Header.Track != "coordinator" || merged[1].Header.Track != "w1" || merged[2].Header.Track != "w2" {
			t.Fatalf("track order: %s, %s, %s", merged[0].Header.Track, merged[1].Header.Track, merged[2].Header.Track)
		}
		got := []string{}
		for _, sp := range merged[2].Spans {
			got = append(got, sp.ID)
		}
		// (Point, Attempt, phase rank): point 0 "point" < point 0 "run" < point 1.
		if strings.Join(got, ",") != "e,d,c" {
			t.Fatalf("span order %v", got)
		}
	}

	other := w1
	other.Header.SweepHash = "ffff"
	if _, err := MergeSpans([]SpanLog{co, other}); err == nil {
		t.Fatal("mismatched sweep hash should refuse to merge")
	}
	if _, err := MergeSpans(nil); err == nil {
		t.Fatal("empty merge should error")
	}
}

func TestWriteSpanTrace(t *testing.T) {
	co := makeLog("coordinator", "coordinator",
		Span{ID: "g", Point: 0, Attempt: 1, Phase: "grant", Status: SpanOK, Start: 0.5, End: 1.5},
	)
	w1 := makeLog("w1", "worker",
		Span{ID: "p", Point: 0, Attempt: 1, Phase: "point", Status: SpanOK, Start: 0.6, End: 1.4},
		Span{ID: "s", Point: 0, Attempt: 1, Phase: "stolen", Status: SpanStolen, Start: 2, End: 2},
	)
	w1.Header.StartUnixNano = 2e9 // one second after the coordinator

	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, []SpanLog{w1, co}); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	// 1 process meta + 2 thread metas + 3 spans.
	if len(trace.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(trace.TraceEvents))
	}
	var grants, instants int
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			want := map[int]string{0: "coordinator:coordinator", 1: "worker:w1"}[ev.Tid]
			if ev.Args["name"] != want {
				t.Errorf("tid %d named %v, want %s", ev.Tid, ev.Args["name"], want)
			}
		case ev.Name == "grant":
			grants++
			if ev.Ts != 0.5e6 || ev.Dur != 1e6 {
				t.Errorf("grant ts/dur = %v/%v", ev.Ts, ev.Dur)
			}
		case ev.Name == "point":
			// w1's origin is 1s after the merged origin.
			if ev.Ts != 1e6+0.6e6 {
				t.Errorf("point ts = %v", ev.Ts)
			}
		case ev.Name == "stolen":
			instants++
			if ev.Ph != "i" {
				t.Errorf("zero-duration span rendered %q, want i", ev.Ph)
			}
		}
	}
	if grants != 1 || instants != 1 {
		t.Errorf("grants=%d instants=%d", grants, instants)
	}
}

func TestSpanIDStability(t *testing.T) {
	a := SpanID("abcd", 3, 2, "run")
	if a != SpanID("abcd", 3, 2, "run") {
		t.Fatal("SpanID not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("SpanID length %d", len(a))
	}
	seen := map[string]bool{a: true}
	for _, id := range []string{
		SpanID("abcd", 3, 2, "point"),
		SpanID("abcd", 3, 1, "run"),
		SpanID("abcd", 2, 2, "run"),
		SpanID("ffff", 3, 2, "run"),
	} {
		if seen[id] {
			t.Fatalf("collision: %s", id)
		}
		seen[id] = true
	}
}

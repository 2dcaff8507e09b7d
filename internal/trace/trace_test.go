package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		Files: []FileInfo{
			{ID: 0, Size: 100, Rate: 0.5},
			{ID: 1, Size: 200, Rate: 0.25},
			{ID: 2, Size: 400, Rate: 0},
		},
		Requests: []Request{
			{Time: 1.0, FileID: 0},
			{Time: 2.0, FileID: 1},
			{Time: 2.0, FileID: 0},
			{Time: 5.5, FileID: 0},
		},
		Duration: 10,
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := map[string]func(*Trace){
		"nondense ids":   func(tr *Trace) { tr.Files[1].ID = 7 },
		"negative size":  func(tr *Trace) { tr.Files[0].Size = -1 },
		"negative rate":  func(tr *Trace) { tr.Files[0].Rate = -1 },
		"nan rate":       func(tr *Trace) { tr.Files[0].Rate = math.NaN() },
		"unknown file":   func(tr *Trace) { tr.Requests[0].FileID = 99 },
		"negative time":  func(tr *Trace) { tr.Requests[0].Time = -1 },
		"unordered":      func(tr *Trace) { tr.Requests[3].Time = 0.5 },
		"short duration": func(tr *Trace) { tr.Duration = 3 },
		"negative duration": func(tr *Trace) {
			tr.Requests = nil
			tr.Duration = -1
		},
	}
	for name, mutate := range cases {
		tr := sampleTrace()
		mutate(tr)
		if tr.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStats(t *testing.T) {
	s := sampleTrace().Stats()
	if s.NumFiles != 3 || s.NumRequests != 4 {
		t.Fatalf("counts: %+v", s)
	}
	if s.DistinctRequested != 2 {
		t.Errorf("distinct=%d want 2", s.DistinctRequested)
	}
	if s.ArrivalRate != 0.4 {
		t.Errorf("rate=%v want 0.4", s.ArrivalRate)
	}
	// Requested sizes: 100,200,100,100 -> mean 125.
	if s.MeanRequestSize != 125 {
		t.Errorf("mean request size=%v want 125", s.MeanRequestSize)
	}
	if s.TotalBytes != 700 {
		t.Errorf("total=%d want 700", s.TotalBytes)
	}
	if math.Abs(s.MeanFileSize-700.0/3) > 1e-9 {
		t.Errorf("mean file size=%v", s.MeanFileSize)
	}
}

func TestEmpiricalRates(t *testing.T) {
	tr := sampleTrace()
	rates := tr.EmpiricalRates()
	want := []float64{0.3, 0.1, 0}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-12 {
			t.Errorf("rate[%d]=%v want %v", i, rates[i], want[i])
		}
	}
	tr.SetEmpiricalRates()
	if tr.Files[0].Rate != 0.3 {
		t.Errorf("SetEmpiricalRates did not update: %v", tr.Files[0].Rate)
	}
}

func TestEmpiricalRatesZeroDuration(t *testing.T) {
	tr := &Trace{Files: []FileInfo{{ID: 0, Size: 1}}}
	rates := tr.EmpiricalRates()
	if rates[0] != 0 {
		t.Error("zero-duration trace should give zero rates")
	}
}

func TestSizeHistogram(t *testing.T) {
	tr := &Trace{Files: []FileInfo{
		{ID: 0, Size: 10}, {ID: 1, Size: 100}, {ID: 2, Size: 1000},
		{ID: 3, Size: 15}, {ID: 4, Size: 12},
	}}
	h := tr.SizeHistogram(3)
	if h.Count() != 5 {
		t.Fatalf("count=%d want 5", h.Count())
	}
	if h.Bin(0) != 3 { // 10, 12, 15 in lowest decade-ish bin
		t.Errorf("bin0=%d want 3", h.Bin(0))
	}
}

func TestSizeHistogramDegenerate(t *testing.T) {
	// All sizes zero — must not panic.
	tr := &Trace{Files: []FileInfo{{ID: 0, Size: 0}}}
	h := tr.SizeHistogram(4)
	if h.Count() != 1 {
		t.Fatalf("count=%d", h.Count())
	}
	// Single distinct size.
	tr2 := &Trace{Files: []FileInfo{{ID: 0, Size: 5}, {ID: 1, Size: 5}}}
	if h2 := tr2.SizeHistogram(4); h2.Count() != 2 {
		t.Fatalf("count=%d", h2.Count())
	}
}

func TestSizeFrequencyCorrelationSigns(t *testing.T) {
	// Positive association: bigger file requested more.
	pos := &Trace{
		Files: []FileInfo{{ID: 0, Size: 10}, {ID: 1, Size: 100}, {ID: 2, Size: 1000}},
		Requests: []Request{
			{Time: 0, FileID: 0}, {Time: 1, FileID: 1}, {Time: 1.5, FileID: 1},
			{Time: 2, FileID: 2}, {Time: 2.5, FileID: 2}, {Time: 3, FileID: 2},
		},
		Duration: 10,
	}
	if c := pos.SizeFrequencyCorrelation(); c <= 0.5 {
		t.Errorf("positive-assoc correlation=%v want > 0.5", c)
	}
	// Too few points.
	small := &Trace{Files: []FileInfo{{ID: 0, Size: 10}}, Requests: []Request{{Time: 0, FileID: 0}}, Duration: 1}
	if c := small.SizeFrequencyCorrelation(); c != 0 {
		t.Errorf("tiny trace correlation=%v want 0", c)
	}
}

func TestSortRequests(t *testing.T) {
	tr := &Trace{
		Files:    []FileInfo{{ID: 0, Size: 1}},
		Requests: []Request{{Time: 3, FileID: 0}, {Time: 1, FileID: 0}, {Time: 2, FileID: 0}},
		Duration: 5,
	}
	tr.SortRequests()
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Time < tr.Requests[i-1].Time {
			t.Fatal("not sorted")
		}
	}
	if tr.Validate() != nil {
		t.Fatal("sorted trace should validate")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != tr.Duration {
		t.Errorf("duration %v want %v", got.Duration, tr.Duration)
	}
	if len(got.Files) != len(tr.Files) || len(got.Requests) != len(tr.Requests) {
		t.Fatalf("lengths: %d files %d requests", len(got.Files), len(got.Requests))
	}
	for i := range tr.Files {
		if got.Files[i] != tr.Files[i] {
			t.Errorf("file %d: %+v want %+v", i, got.Files[i], tr.Files[i])
		}
	}
	for i := range tr.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Errorf("request %d: %+v want %+v", i, got.Requests[i], tr.Requests[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not-a-trace",
		"diskpack-trace v1\nduration x\n",
		"diskpack-trace v1\nduration 5\nfiles 2\n100 0.5\n",             // truncated files
		"diskpack-trace v1\nduration 5\nfiles 1\n100 0.5\nrequests 1\n", // truncated requests
		"diskpack-trace v1\nduration 5\nfiles 1\n100 0.5 9\nrequests 0\n",
		"diskpack-trace v1\nduration 5\nfiles 1\nabc 0.5\nrequests 0\n",
		"diskpack-trace v1\nduration 5\nfiles 1\n100 0.5\nrequests 1\n1 7\n", // bad file id
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// Property: round-tripping preserves any valid trace built from small
// integers.
func TestRoundTripProperty(t *testing.T) {
	prop := func(sizes []uint32, reqRaw []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		tr := &Trace{Duration: 1e6}
		for i, s := range sizes {
			tr.Files = append(tr.Files, FileInfo{ID: i, Size: int64(s), Rate: float64(s%100) / 100})
		}
		for i, r := range reqRaw {
			tr.Requests = append(tr.Requests,
				Request{Time: float64(i), FileID: int(r) % len(sizes)})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Files) != len(tr.Files) || len(got.Requests) != len(tr.Requests) {
			return false
		}
		for i := range tr.Files {
			if got.Files[i] != tr.Files[i] {
				return false
			}
		}
		for i := range tr.Requests {
			if got.Requests[i] != tr.Requests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Hostile header counts fail cleanly: negative counts are rejected and
// a huge count reserves only a bounded prealloc before its lines
// arrive.
func TestReadRejectsHostileCounts(t *testing.T) {
	cases := []string{
		"diskpack-trace v1\nduration 5\nfiles -1\n",
		"diskpack-trace v1\nduration 5\nfiles 1\n100 0.5\nrequests -5\n",
		"diskpack-trace v1\nduration 5\nfiles 9223372036854775807\n100 0.5\n",
		"diskpack-trace v1\nduration 5\nfiles 1\n100 0.5\nrequests 9223372036854775807\n1 0\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: hostile count accepted", i)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Read(strings.NewReader("diskpack-trace v1\nduration 5\nfiles 16777216\n"))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("a truncated 16M-file header allocated %d bytes", got)
	}
}

// FuzzTraceRead: every input yields a trace that validates or an
// error, never a panic, and an accepted trace survives Write → Read
// unchanged.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("diskpack-trace v1\nduration 5\nfiles -1\n"))
	f.Add([]byte("diskpack-trace v1\nduration 5\nfiles 1\n100 0.5\nrequests -5\n"))
	f.Add([]byte("diskpack-trace v1\nduration 1e9\nfiles 1\n100 0.5\nrequests 1\n1 0 w\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read returned a trace that fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if !sameTrace(tr, again) {
			t.Fatalf("trace changed across Write → Read")
		}
	})
}

// sameTrace compares two traces field by field.
func sameTrace(a, b *Trace) bool {
	if a.Duration != b.Duration || len(a.Files) != len(b.Files) || len(a.Requests) != len(b.Requests) {
		return false
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			return false
		}
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			return false
		}
	}
	return true
}

// Package trace defines the workload-trace representation shared by the
// workload generators, the storage simulator, and the CLI tools: a file
// population (sizes plus expected access rates) and a time-ordered
// request stream. It also provides the summary statistics and the
// 80-bin log-scale size histogram the paper uses to characterize the
// NERSC log (Section 5.1), and a plain-text codec so traces can be
// generated once and replayed by other tools.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"diskpack/internal/stats"
)

// FileInfo describes one file in the trace's population.
type FileInfo struct {
	ID   int
	Size int64 // bytes
	// Rate is the expected request rate in requests/second, used by
	// the packing algorithms to compute the file's load. It may be an
	// a-priori model value or an empirical estimate (EmpiricalRates).
	Rate float64
}

// Request is one whole-file access arriving at the storage system.
// The paper's evaluation is read-only; Write marks the ingest requests
// of the Section 1 write policy ("write files into an already spinning
// disk if sufficient space is found on it or write it into any other
// disk").
type Request struct {
	Time   float64 // seconds from trace start
	FileID int
	Write  bool
}

// Trace is a file population plus a request stream over a fixed
// duration.
type Trace struct {
	Files    []FileInfo
	Requests []Request
	Duration float64 // seconds; at least the last request time
}

// Validate reports structural problems: out-of-range file IDs,
// decreasing timestamps, negative sizes or duration shorter than the
// request stream.
func (t *Trace) Validate() error {
	for i, f := range t.Files {
		if f.ID != i {
			return fmt.Errorf("trace: file %d has ID %d (IDs must be dense and ordered)", i, f.ID)
		}
		if f.Size < 0 {
			return fmt.Errorf("trace: file %d has negative size %d", i, f.Size)
		}
		if f.Rate < 0 || math.IsNaN(f.Rate) {
			return fmt.Errorf("trace: file %d has invalid rate %v", i, f.Rate)
		}
	}
	last := math.Inf(-1)
	for i, r := range t.Requests {
		if r.FileID < 0 || r.FileID >= len(t.Files) {
			return fmt.Errorf("trace: request %d references unknown file %d", i, r.FileID)
		}
		if r.Time < 0 || math.IsNaN(r.Time) {
			return fmt.Errorf("trace: request %d has invalid time %v", i, r.Time)
		}
		if r.Time < last {
			return fmt.Errorf("trace: request %d out of order (%v after %v)", i, r.Time, last)
		}
		last = r.Time
	}
	if len(t.Requests) > 0 && t.Duration < last {
		return fmt.Errorf("trace: duration %v shorter than last request %v", t.Duration, last)
	}
	if t.Duration < 0 {
		return fmt.Errorf("trace: negative duration %v", t.Duration)
	}
	return nil
}

// Summary aggregates the statistics the paper reports for the NERSC
// log: request count, distinct files touched, arrival rate, mean
// requested size, and total population size.
type Summary struct {
	NumFiles          int
	NumRequests       int
	DistinctRequested int
	Duration          float64
	ArrivalRate       float64 // requests per second
	MeanRequestSize   float64 // bytes, averaged over requests
	MeanFileSize      float64 // bytes, averaged over files
	TotalBytes        int64   // population size
}

// Stats computes the Summary in one pass.
func (t *Trace) Stats() Summary {
	s := Summary{
		NumFiles:    len(t.Files),
		NumRequests: len(t.Requests),
		Duration:    t.Duration,
	}
	seen := make(map[int]struct{}, len(t.Files))
	var reqBytes float64
	for _, r := range t.Requests {
		reqBytes += float64(t.Files[r.FileID].Size)
		seen[r.FileID] = struct{}{}
	}
	s.DistinctRequested = len(seen)
	if t.Duration > 0 {
		s.ArrivalRate = float64(len(t.Requests)) / t.Duration
	}
	if len(t.Requests) > 0 {
		s.MeanRequestSize = reqBytes / float64(len(t.Requests))
	}
	for _, f := range t.Files {
		s.TotalBytes += f.Size
	}
	if len(t.Files) > 0 {
		s.MeanFileSize = float64(s.TotalBytes) / float64(len(t.Files))
	}
	return s
}

// EmpiricalRates returns per-file request rates measured from the
// request stream (count / duration) — the statistics a semi-dynamic
// deployment accumulates between reorganization points (Section 1.1).
func (t *Trace) EmpiricalRates() []float64 {
	rates := make([]float64, len(t.Files))
	if t.Duration <= 0 {
		return rates
	}
	for _, r := range t.Requests {
		rates[r.FileID]++
	}
	for i := range rates {
		rates[i] /= t.Duration
	}
	return rates
}

// SetEmpiricalRates overwrites each FileInfo.Rate with the measured
// value.
func (t *Trace) SetEmpiricalRates() {
	for i, r := range t.EmpiricalRates() {
		t.Files[i].Rate = r
	}
}

// SizeHistogram classifies the file population into bins log-spaced
// size bins (the paper uses 80).
func (t *Trace) SizeHistogram(bins int) *stats.LogHistogram {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range t.Files {
		s := float64(f.Size)
		if s <= 0 {
			continue
		}
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if math.IsInf(lo, 1) { // no positive sizes
		lo, hi = 1, 2
	}
	if hi <= lo {
		hi = lo * 2
	}
	h := stats.NewLogHistogram(lo, hi*(1+1e-12), bins)
	for _, f := range t.Files {
		h.Add(float64(f.Size))
	}
	return h
}

// SizeZipfFit fits log(bin proportion) against log(bin center) over the
// non-empty bins of the size histogram. A Zipf-like size distribution
// shows up as a negative slope with high R² — the paper's criterion for
// "decreases almost linearly in the log-log scale".
func (t *Trace) SizeZipfFit(bins int) stats.LinearFit {
	h := t.SizeHistogram(bins)
	var xs, ys []float64
	for i := 0; i < h.Bins(); i++ {
		if c := h.Bin(i); c > 0 {
			xs = append(xs, math.Log(h.BinCenter(i)))
			ys = append(ys, math.Log(float64(c)/float64(h.Count())))
		}
	}
	return stats.FitLine(xs, ys)
}

// SizeFrequencyCorrelation returns the Pearson correlation between file
// size and empirical access count over files accessed at least once.
// The paper observed no significant relationship in the NERSC log.
func (t *Trace) SizeFrequencyCorrelation() float64 {
	counts := make([]float64, len(t.Files))
	for _, r := range t.Requests {
		counts[r.FileID]++
	}
	var xs, ys []float64
	for i, f := range t.Files {
		if counts[i] > 0 {
			xs = append(xs, float64(f.Size))
			ys = append(ys, counts[i])
		}
	}
	if len(xs) < 2 {
		return 0
	}
	var wx, wy stats.Welford
	for i := range xs {
		wx.Add(xs[i])
		wy.Add(ys[i])
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - wx.Mean()) * (ys[i] - wy.Mean())
	}
	cov /= float64(len(xs) - 1)
	sd := wx.Std() * wy.Std()
	if sd == 0 {
		return 0
	}
	return cov / sd
}

// SortRequests orders the request stream by time (stable), which the
// simulator requires.
func (t *Trace) SortRequests() {
	sort.SliceStable(t.Requests, func(a, b int) bool {
		return t.Requests[a].Time < t.Requests[b].Time
	})
}

const formatHeader = "diskpack-trace v1"

// readPrealloc caps the capacity Read reserves from a header count: a
// count is only a claim until its lines are read, so larger traces
// grow as they arrive instead of allocating on the header's word.
const readPrealloc = 1 << 16

// Write serializes the trace in the package's plain-text format:
//
//	diskpack-trace v1
//	duration <seconds>
//	files <n>
//	<size> <rate>        (file ID is the line index)
//	requests <m>
//	<time> <fileID> [w]  (trailing "w" marks a write)
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "duration %g\n", t.Duration)
	fmt.Fprintf(bw, "files %d\n", len(t.Files))
	for _, f := range t.Files {
		fmt.Fprintf(bw, "%d %g\n", f.Size, f.Rate)
	}
	fmt.Fprintf(bw, "requests %d\n", len(t.Requests))
	for _, r := range t.Requests {
		if r.Write {
			fmt.Fprintf(bw, "%g %d w\n", r.Time, r.FileID)
		} else {
			fmt.Fprintf(bw, "%g %d\n", r.Time, r.FileID)
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write and validates it.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	next := func() (string, error) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s != "" {
				return s, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	hdr, err := next()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != formatHeader {
		return nil, fmt.Errorf("trace: bad header %q", hdr)
	}
	t := &Trace{}
	durLine, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(durLine, "duration %g", &t.Duration); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	var nFiles int
	fl, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(fl, "files %d", &nFiles); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	if nFiles < 0 {
		return nil, fmt.Errorf("trace: line %d: negative file count %d", line, nFiles)
	}
	t.Files = make([]FileInfo, 0, min(nFiles, readPrealloc))
	for i := 0; i < nFiles; i++ {
		s, err := next()
		if err != nil {
			return nil, fmt.Errorf("trace: file %d: %w", i, err)
		}
		fields := strings.Fields(s)
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %q", line, s)
		}
		size, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rate, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Files = append(t.Files, FileInfo{ID: i, Size: size, Rate: rate})
	}
	var nReq int
	rl, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(rl, "requests %d", &nReq); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	if nReq < 0 {
		return nil, fmt.Errorf("trace: line %d: negative request count %d", line, nReq)
	}
	t.Requests = make([]Request, 0, min(nReq, readPrealloc))
	for i := 0; i < nReq; i++ {
		s, err := next()
		if err != nil {
			return nil, fmt.Errorf("trace: request %d: %w", i, err)
		}
		fields := strings.Fields(s)
		if len(fields) != 2 && !(len(fields) == 3 && fields[2] == "w") {
			return nil, fmt.Errorf("trace: line %d: want \"time file [w]\", got %q", line, s)
		}
		tm, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		fid, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Requests = append(t.Requests, Request{Time: tm, FileID: fid, Write: len(fields) == 3})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

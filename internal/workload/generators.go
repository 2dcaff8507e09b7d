package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
)

// Synthetic holds the Table 1 workload parameters.
type Synthetic struct {
	NumFiles    int     // n (paper: 40,000)
	Theta       float64 // Zipf θ (paper: log0.6/log0.4)
	MinSize     int64   // bytes (paper: 188 MB)
	MaxSize     int64   // bytes (paper: 20 GB)
	ArrivalRate float64 // R, requests per second (paper: 1..12)
	Duration    float64 // seconds (paper: 4,000)
	// Diurnal, when non-nil, modulates the Poisson arrivals with a
	// daily-periodic hourly intensity profile (24 relative weights,
	// normalized to preserve the mean rate R). The paper's Table 1
	// workload is homogeneous; the diurnal variant models the
	// day/night load swing of real data centers, whose quiet hours are
	// where spin-down earns its keep.
	Diurnal []float64
	Seed    int64
}

// DefaultSynthetic returns the paper's Table 1 parameters with R left
// for the caller (the sweep variable of Figures 2–4).
func DefaultSynthetic(arrivalRate float64, seed int64) Synthetic {
	return Synthetic{
		NumFiles:    40000,
		Theta:       DefaultTheta,
		MinSize:     188 * disk.MB,
		MaxSize:     20 * disk.GB,
		ArrivalRate: arrivalRate,
		Duration:    4000,
		Seed:        seed,
	}
}

// Validate reports the first invalid parameter.
func (c Synthetic) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("workload: NumFiles %d", c.NumFiles)
	case c.MinSize <= 0 || c.MaxSize < c.MinSize:
		return fmt.Errorf("workload: size range [%d,%d]", c.MinSize, c.MaxSize)
	case c.ArrivalRate <= 0:
		return fmt.Errorf("workload: arrival rate %v", c.ArrivalRate)
	case c.Duration <= 0:
		return fmt.Errorf("workload: duration %v", c.Duration)
	case c.Diurnal != nil && len(c.Diurnal) != 24:
		return fmt.Errorf("workload: diurnal profile has %d entries, want 24", len(c.Diurnal))
	}
	if c.Diurnal != nil {
		var sum float64
		for _, w := range c.Diurnal {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("workload: invalid diurnal weight %v", w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("workload: diurnal profile all zero")
		}
	}
	return nil
}

// Files returns the file population only: Zipf-like access rates
// r_i = p_i·R and inverse-Zipf sizes.
func (c Synthetic) Files() ([]trace.FileInfo, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	weights := ZipfWeights(c.NumFiles, c.Theta)
	sizes := InverseZipfSizes(c.NumFiles, c.MinSize, c.MaxSize)
	files := make([]trace.FileInfo, c.NumFiles)
	for i := range files {
		files[i] = trace.FileInfo{ID: i, Size: sizes[i], Rate: weights[i] * c.ArrivalRate}
	}
	return files, nil
}

// Build generates the full trace: Poisson arrivals at rate R over the
// duration, each request drawing its file from the Zipf popularity
// distribution.
func (c Synthetic) Build() (*trace.Trace, error) {
	files, err := c.Files()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	weights := ZipfWeights(c.NumFiles, c.Theta)
	sampler := NewAlias(weights)
	times := PoissonArrivalsHourly(rng, c.ArrivalRate, c.Duration, c.Diurnal)
	reqs := make([]trace.Request, len(times))
	for i, t := range times {
		reqs[i] = trace.Request{Time: t, FileID: sampler.Sample(rng)}
	}
	tr := &trace.Trace{Files: files, Requests: reqs, Duration: c.Duration}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

// NERSC holds the parameters of the Section 5.1 trace synthesizer. The
// defaults reproduce every summary statistic the paper reports about
// the real 30-day log; the real log itself is not public.
type NERSC struct {
	NumFiles    int     // paper: 88,631 distinct files
	NumRequests int     // paper: 115,832 read requests
	Duration    float64 // paper: 30 days logged, simulated 720 h
	MeanSize    float64 // bytes; paper: 544 MB
	MinSize     int64   // smallest synthesized file
	MaxSize     int64   // largest synthesized file
	Theta       float64 // popularity skew (size-independent)
	// BatchFraction is the probability that an arrival event is a
	// user requesting a batch of similar-size files all at once — the
	// phenomenon that motivates Pack_Disks_v (Section 3.2). Zero
	// disables batching.
	BatchFraction float64
	// BatchSize is the number of files per batch event (>= 2 when
	// batching is enabled).
	BatchSize int
	// Diurnal gives relative arrival intensity per hour of day
	// (24 entries). Real data-center logs are strongly diurnal; the
	// quiet night hours are what let randomly-placed disks sleep at
	// multi-hour idleness thresholds (Figure 5's RND curve). Nil or
	// all-equal means a homogeneous process.
	Diurnal []float64
	// RepeatFraction is the probability that a request re-reads one of
	// the RepeatWindow most recently accessed files (temporal
	// locality). The paper's 16 GB LRU front cache achieved a 5.6%
	// hit ratio on the real log, which requires short-range re-reads
	// the pure Zipf draw lacks.
	RepeatFraction float64
	// RepeatWindow is how many recent requests a repeat may target.
	RepeatWindow int
	Seed         int64
}

// DefaultDiurnal is a work-day intensity profile: low overnight load,
// ramp from 08:00, peak through the afternoon, tail into the evening.
func DefaultDiurnal() []float64 {
	return []float64{
		0.15, 0.10, 0.08, 0.06, 0.06, 0.08, // 00-05
		0.15, 0.35, 0.80, 1.20, 1.50, 1.60, // 06-11
		1.55, 1.60, 1.65, 1.60, 1.45, 1.20, // 12-17
		0.95, 0.70, 0.55, 0.40, 0.30, 0.20, // 18-23
	}
}

// DefaultNERSC returns the paper-matching configuration with mild
// batching.
func DefaultNERSC(seed int64) NERSC {
	return NERSC{
		NumFiles:       88631,
		NumRequests:    115832,
		Duration:       720 * 3600,
		MeanSize:       544 * disk.MB,
		MinSize:        1 * disk.MB,
		MaxSize:        100 * disk.GB,
		Theta:          DefaultTheta,
		BatchFraction:  0.1,
		BatchSize:      4,
		Diurnal:        DefaultDiurnal(),
		RepeatFraction: 0.08,
		RepeatWindow:   24,
		Seed:           seed,
	}
}

// Validate reports the first invalid parameter.
func (c NERSC) Validate() error {
	switch {
	case c.NumFiles <= 0 || c.NumRequests <= 0:
		return fmt.Errorf("workload: NERSC counts files=%d requests=%d", c.NumFiles, c.NumRequests)
	case c.Duration <= 0:
		return fmt.Errorf("workload: NERSC duration %v", c.Duration)
	case c.MinSize <= 0 || c.MaxSize <= c.MinSize:
		return fmt.Errorf("workload: NERSC size range [%d,%d]", c.MinSize, c.MaxSize)
	case c.MeanSize <= float64(c.MinSize) || c.MeanSize >= float64(c.MaxSize):
		return fmt.Errorf("workload: NERSC mean size %v outside range", c.MeanSize)
	case c.BatchFraction < 0 || c.BatchFraction > 1:
		return fmt.Errorf("workload: batch fraction %v", c.BatchFraction)
	case c.BatchFraction > 0 && c.BatchSize < 2:
		return fmt.Errorf("workload: batch size %d with batching enabled", c.BatchSize)
	case c.Diurnal != nil && len(c.Diurnal) != 24:
		return fmt.Errorf("workload: diurnal profile has %d entries, want 24", len(c.Diurnal))
	case c.RepeatFraction < 0 || c.RepeatFraction > 1:
		return fmt.Errorf("workload: repeat fraction %v", c.RepeatFraction)
	case c.RepeatFraction > 0 && c.RepeatWindow < 1:
		return fmt.Errorf("workload: repeat window %d with repeats enabled", c.RepeatWindow)
	}
	if c.Diurnal != nil {
		var sum float64
		for _, w := range c.Diurnal {
			if w < 0 {
				return fmt.Errorf("workload: negative diurnal weight %v", w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("workload: diurnal profile all zero")
		}
	}
	return nil
}

// Build synthesizes the trace:
//
//  1. File sizes are i.i.d. bounded-Pareto on [MinSize, MaxSize] with
//     the tail exponent solved so the mean matches MeanSize; in
//     log-scale bins the counts decrease linearly in log-log, the
//     paper's observed shape.
//  2. Popularity is Zipf over a random permutation of the files, so
//     size and access frequency are independent (the paper found "no
//     significant relationship").
//  3. Exactly NumRequests arrivals are placed uniformly over the
//     duration (the conditional law of a Poisson process given its
//     count, preserving the measured 0.044683/s rate). A BatchFraction
//     of arrival events requests BatchSize files of adjacent size rank
//     at the same instant.
func (c NERSC) Build() (*trace.Trace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	files, perm, weights, err := c.population(rng)
	if err != nil {
		return nil, err
	}
	// sampler draws a popularity rank; perm maps it to a file.
	sampler := NewAlias(weights)

	// bySize lists file IDs in size order; batches pick BatchSize
	// files adjacent in this order ("many users request a batch of
	// files of similar sizes all at once").
	bySize := make([]int, c.NumFiles)
	for i := range bySize {
		bySize[i] = i
	}
	sortBySize(bySize, files)

	// sampleTime draws one arrival instant, honouring the diurnal
	// profile when configured: pick a uniformly random day, an hour of
	// day proportional to its intensity, then a uniform offset within
	// the hour. This is the conditional law of a nonhomogeneous
	// Poisson process with a daily-periodic intensity given its event
	// count.
	var hourSampler *Alias
	if c.Diurnal != nil {
		hourSampler = NewAlias(c.Diurnal)
	}
	sampleTime := func() float64 {
		if hourSampler == nil {
			return rng.Float64() * c.Duration
		}
		// Bounded retries guard against degenerate cases (duration
		// shorter than the only active hours); fall back to uniform.
		for try := 0; try < 1000; try++ {
			day := math.Floor(rng.Float64() * c.Duration / 86400)
			hour := float64(hourSampler.Sample(rng))
			t := day*86400 + hour*3600 + rng.Float64()*3600
			if t < c.Duration {
				return t
			}
		}
		return rng.Float64() * c.Duration
	}

	// Events are timed first and filled with file IDs in time order, so
	// the repeat mechanism sees a causally meaningful "recent" window.
	type event struct {
		t     float64
		batch int // 0 = single request, else batch size
	}
	var events []event
	for budget := c.NumRequests; budget > 0; {
		ev := event{t: sampleTime()}
		if c.BatchFraction > 0 && rng.Float64() < c.BatchFraction {
			ev.batch = c.BatchSize
			if ev.batch > budget {
				ev.batch = budget
			}
			budget -= ev.batch
		} else {
			budget--
		}
		events = append(events, ev)
	}
	sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })

	reqs := make([]trace.Request, 0, c.NumRequests)
	var recent []int // ring of recently accessed files
	remember := func(fi int) {
		recent = append(recent, fi)
		if len(recent) > c.RepeatWindow {
			recent = recent[1:]
		}
	}
	for _, ev := range events {
		if ev.batch > 0 {
			// A batch event: anchor at a random position in size
			// order, request adjacent files simultaneously.
			anchor := rng.Intn(c.NumFiles)
			for k := 0; k < ev.batch; k++ {
				fi := bySize[(anchor+k)%c.NumFiles]
				reqs = append(reqs, trace.Request{Time: ev.t, FileID: fi})
				remember(fi)
			}
			continue
		}
		var fi int
		if c.RepeatFraction > 0 && len(recent) > 0 && rng.Float64() < c.RepeatFraction {
			fi = recent[rng.Intn(len(recent))]
		} else {
			fi = perm[sampler.Sample(rng)]
		}
		reqs = append(reqs, trace.Request{Time: ev.t, FileID: fi})
		remember(fi)
	}
	tr := &trace.Trace{Files: files, Requests: reqs, Duration: c.Duration}
	tr.SortRequests()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid NERSC trace: %w", err)
	}
	return tr, nil
}

// Files returns the file population only: the sizes and rates Build
// draws first from the seeded stream, so they equal Build's.
func (c NERSC) Files() ([]trace.FileInfo, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	files, _, _, err := c.population(rand.New(rand.NewSource(c.Seed)))
	return files, err
}

// population makes the first draws from rng: bounded-Pareto file sizes,
// then a popularity permutation (perm[rank] is the file of that rank)
// that decouples rank from size. Each file's rate is its rank's Zipf
// weight times the overall request rate; weights are returned by rank.
func (c NERSC) population(rng *rand.Rand) (files []trace.FileInfo, perm []int, weights []float64, err error) {
	alpha, err := AlphaForMean(float64(c.MinSize), float64(c.MaxSize), c.MeanSize)
	if err != nil {
		return nil, nil, nil, err
	}
	dist := BoundedPareto{Min: float64(c.MinSize), Max: float64(c.MaxSize), Alpha: alpha}
	files = make([]trace.FileInfo, c.NumFiles)
	for i := range files {
		files[i] = trace.FileInfo{ID: i, Size: int64(dist.Sample(rng))}
	}
	perm = rng.Perm(c.NumFiles)
	weights = ZipfWeights(c.NumFiles, c.Theta)
	rateOverall := float64(c.NumRequests) / c.Duration
	for rank, fi := range perm {
		files[fi].Rate = weights[rank] * rateOverall
	}
	return files, perm, weights, nil
}

func sortBySize(idx []int, files []trace.FileInfo) {
	sort.SliceStable(idx, func(a, b int) bool { return files[idx[a]].Size < files[idx[b]].Size })
}

// BuildDrifting synthesizes a trace whose popularity drifts: the
// duration is split into phases equal windows and each phase draws its
// requests from a freshly permuted Zipf popularity over the same file
// population. Sizes, counts, and the arrival process are unchanged;
// only *which* files are hot rotates. This is the scenario the paper's
// Section 1 semi-dynamic reorganization targets: an allocation packed
// for last month's hot set slowly stops matching the traffic. The
// stored file rates are those of phase 0 (what an operator would have
// measured before deploying).
func (c NERSC) BuildDrifting(phases int) (*trace.Trace, error) {
	if phases < 1 {
		return nil, fmt.Errorf("workload: drifting phases %d must be >= 1", phases)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Phase 0 defines the population and its nominal rates.
	base := c
	base.Duration = c.Duration / float64(phases)
	base.NumRequests = c.NumRequests / phases
	tr, err := base.Build()
	if err != nil {
		return nil, err
	}
	for ph := 1; ph < phases; ph++ {
		pc := base
		pc.Seed = c.Seed + int64(ph)*1000003
		ptr, err := pc.Build()
		if err != nil {
			return nil, err
		}
		// Same distributional shape, fresh permutation — but the
		// population must be phase 0's: remap phase-ph requests
		// through identity (populations are index-compatible since
		// counts match; sizes differ per seed, which is fine for
		// popularity drift because request service uses phase 0's
		// sizes via the shared FileID space).
		offset := float64(ph) * base.Duration
		for _, r := range ptr.Requests {
			tr.Requests = append(tr.Requests, trace.Request{Time: r.Time + offset, FileID: r.FileID})
		}
	}
	tr.Duration = base.Duration * float64(phases)
	tr.SortRequests()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: drifting trace invalid: %w", err)
	}
	return tr, nil
}

package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"diskpack/internal/disk"
	"diskpack/internal/trace"
)

func TestDefaultThetaValue(t *testing.T) {
	// θ = log 0.6 / log 0.4 ≈ 0.5573; the Zipf exponent 1−θ ≈ 0.4427.
	if math.Abs(DefaultTheta-0.5573) > 0.0005 {
		t.Fatalf("DefaultTheta=%v want ≈0.5573", DefaultTheta)
	}
}

func TestZipfWeightsNormalizedAndDecreasing(t *testing.T) {
	w := ZipfWeights(1000, DefaultTheta)
	var sum float64
	for i, wi := range w {
		sum += wi
		if i > 0 && wi > w[i-1] {
			t.Fatalf("weights increase at %d", i)
		}
		if wi <= 0 {
			t.Fatalf("non-positive weight at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum=%v want 1", sum)
	}
	// p1/p2 = 2^(1−θ).
	ratio := w[0] / w[1]
	want := math.Pow(2, 1-DefaultTheta)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("p1/p2=%v want %v", ratio, want)
	}
}

func TestZipfWeightsEdgeCases(t *testing.T) {
	if ZipfWeights(0, 0.5) != nil {
		t.Error("n=0 should yield nil")
	}
	w := ZipfWeights(1, DefaultTheta)
	if len(w) != 1 || math.Abs(w[0]-1) > 1e-12 {
		t.Errorf("n=1 weights=%v", w)
	}
	// θ=1 means exponent 0: uniform.
	u := ZipfWeights(4, 1)
	for _, wi := range u {
		if math.Abs(wi-0.25) > 1e-12 {
			t.Errorf("θ=1 weights not uniform: %v", u)
		}
	}
}

func TestInverseZipfSizesEndpoints(t *testing.T) {
	n := 40000
	sizes := InverseZipfSizes(n, 188*disk.MB, 20*disk.GB)
	// Most popular (rank 1) file is the smallest — and exactly minSize
	// by construction.
	if got := sizes[0]; math.Abs(float64(got)-188e6) > 1e6 {
		t.Errorf("size of rank-1 file = %d want ≈188 MB", got)
	}
	if got := sizes[n-1]; got != 20*disk.GB {
		t.Errorf("size of rank-n file = %d want 20 GB", got)
	}
	for i := 1; i < n; i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("sizes not nondecreasing at %d", i)
		}
	}
}

// TestInverseZipfTotalMatchesTable1 confirms the reconstruction of the
// paper's size generator: with Table 1 parameters the total space
// requirement is reported as 12.86 TB.
func TestInverseZipfTotalMatchesTable1(t *testing.T) {
	sizes := InverseZipfSizes(40000, 188*disk.MB, 20*disk.GB)
	var total float64
	for _, s := range sizes {
		total += float64(s)
	}
	totalTB := total / float64(disk.TB)
	if totalTB < 12.2 || totalTB > 13.6 {
		t.Fatalf("total space = %.2f TB, paper reports 12.86 TB", totalTB)
	}
}

func TestInverseZipfSizesPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad range did not panic")
		}
	}()
	InverseZipfSizes(10, 100, 50)
}

func TestInverseZipfSingleFile(t *testing.T) {
	s := InverseZipfSizes(1, 100, 200)
	if len(s) != 1 || s[0] != 100 {
		t.Fatalf("n=1 sizes=%v", s)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{0.5, 0.25, 0.125, 0.125}
	a := NewAlias(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, len(weights))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[a.Sample(rng)]++
	}
	for i, w := range weights {
		got := counts[i] / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("weight %d: sampled %v want %v", i, got, w)
		}
	}
}

func TestAliasUnnormalizedWeights(t *testing.T) {
	a := NewAlias([]float64{2, 2, 4})
	rng := rand.New(rand.NewSource(2))
	counts := make([]float64, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[a.Sample(rng)]++
	}
	if math.Abs(counts[2]/n-0.5) > 0.01 {
		t.Errorf("index 2 sampled %v want 0.5", counts[2]/n)
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{1, 0, 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if a.Sample(rng) == 1 {
			t.Fatal("zero-weight index sampled")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() { recover() }()
			NewAlias(w)
			t.Errorf("weights %v accepted", w)
		}()
	}
}

func TestBoundedParetoMeanFormula(t *testing.T) {
	b := BoundedPareto{Min: 1e6, Max: 1e11, Alpha: 0.9}
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const n = 400000
	for i := 0; i < n; i++ {
		x := b.Sample(rng)
		if x < b.Min || x > b.Max {
			t.Fatalf("sample %v outside [%v,%v]", x, b.Min, b.Max)
		}
		sum += x
	}
	got := sum / n
	want := b.Mean()
	// The tail makes the sample mean noisy (σ of the mean ≈ 4% here
	// even at 400k samples), so the tolerance is wide.
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("empirical mean %v vs analytic %v", got, want)
	}
}

func TestAlphaForMean(t *testing.T) {
	min, max := 1e6, 1e11
	for _, mean := range []float64{5e6, 544e6, 5e9} {
		alpha, err := AlphaForMean(min, max, mean)
		if err != nil {
			t.Fatalf("mean %v: %v", mean, err)
		}
		got := BoundedPareto{Min: min, Max: max, Alpha: alpha}.Mean()
		if math.Abs(got-mean)/mean > 1e-6 {
			t.Errorf("mean %v: solved alpha %v gives mean %v", mean, alpha, got)
		}
	}
}

func TestAlphaForMeanErrors(t *testing.T) {
	if _, err := AlphaForMean(10, 5, 7); err == nil {
		t.Error("bad range accepted")
	}
	if _, err := AlphaForMean(1, 100, 0.5); err == nil {
		t.Error("mean below min accepted")
	}
	if _, err := AlphaForMean(1, 100, 200); err == nil {
		t.Error("mean above max accepted")
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rate, dur := 2.0, 10000.0
	times := PoissonArrivals(rng, rate, dur)
	n := float64(len(times))
	mean := rate * dur
	if math.Abs(n-mean) > 5*math.Sqrt(mean) {
		t.Fatalf("arrival count %v outside 5σ of %v", n, mean)
	}
	last := 0.0
	for _, tt := range times {
		if tt < last || tt >= dur {
			t.Fatal("arrival times not sorted within [0,duration)")
		}
		last = tt
	}
	if PoissonArrivals(rng, 0, 10) != nil {
		t.Error("zero rate should yield nil")
	}
}

func TestUniformOrderedTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	times := UniformOrderedTimes(rng, 5000, 100)
	if len(times) != 5000 {
		t.Fatalf("len=%d", len(times))
	}
	var sum float64
	last := 0.0
	for _, tt := range times {
		if tt < last || tt >= 100 {
			t.Fatal("not sorted / out of range")
		}
		last = tt
		sum += tt
	}
	if mean := sum / 5000; math.Abs(mean-50) > 2 {
		t.Errorf("mean arrival %v want ≈50", mean)
	}
}

func TestSyntheticDefaultsMatchTable1(t *testing.T) {
	c := DefaultSynthetic(6, 1)
	if c.NumFiles != 40000 || c.Duration != 4000 {
		t.Errorf("defaults: %+v", c)
	}
	if c.MinSize != 188*disk.MB || c.MaxSize != 20*disk.GB {
		t.Errorf("size range: %d..%d", c.MinSize, c.MaxSize)
	}
	if c.Theta != DefaultTheta {
		t.Errorf("theta=%v", c.Theta)
	}
}

func TestSyntheticBuild(t *testing.T) {
	c := DefaultSynthetic(4, 42)
	c.NumFiles = 2000 // keep the test fast
	tr, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Files) != 2000 {
		t.Fatalf("files=%d", len(tr.Files))
	}
	s := tr.Stats()
	if math.Abs(s.ArrivalRate-4) > 0.5 {
		t.Errorf("arrival rate %v want ≈4", s.ArrivalRate)
	}
	// Popularity skew: rank-1 file must be requested far more often
	// than a mid-rank file.
	counts := make([]int, len(tr.Files))
	for _, r := range tr.Requests {
		counts[r.FileID]++
	}
	if counts[0] < counts[1000] {
		t.Errorf("rank-1 file requested %d times, rank-1000 %d — no skew", counts[0], counts[1000])
	}
	// Rates must integrate to the overall rate.
	var rateSum float64
	for _, f := range tr.Files {
		rateSum += f.Rate
	}
	if math.Abs(rateSum-4) > 1e-6 {
		t.Errorf("sum of per-file rates %v want 4", rateSum)
	}
}

func TestSyntheticValidate(t *testing.T) {
	bad := []Synthetic{
		{NumFiles: 0, MinSize: 1, MaxSize: 2, ArrivalRate: 1, Duration: 1},
		{NumFiles: 1, MinSize: 0, MaxSize: 2, ArrivalRate: 1, Duration: 1},
		{NumFiles: 1, MinSize: 5, MaxSize: 2, ArrivalRate: 1, Duration: 1},
		{NumFiles: 1, MinSize: 1, MaxSize: 2, ArrivalRate: 0, Duration: 1},
		{NumFiles: 1, MinSize: 1, MaxSize: 2, ArrivalRate: 1, Duration: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := c.Build(); err == nil {
			t.Errorf("case %d built", i)
		}
	}
}

// TestNERSCMatchesPaperStatistics is the substitution check from
// DESIGN.md: every summary statistic the paper reports about the real
// log must hold for the synthesized one.
func TestNERSCMatchesPaperStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size NERSC synthesis")
	}
	c := DefaultNERSC(7)
	tr, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.NumFiles != 88631 {
		t.Errorf("files=%d want 88631", s.NumFiles)
	}
	if s.NumRequests != 115832 {
		t.Errorf("requests=%d want 115832", s.NumRequests)
	}
	// Paper: average arrival rate 0.044683/s.
	if math.Abs(s.ArrivalRate-0.044683) > 0.0005 {
		t.Errorf("arrival rate %v want ≈0.044683", s.ArrivalRate)
	}
	// Paper: mean size of accessed files ≈ 544 MB. The synthesizer
	// fixes the population mean; the request-weighted mean matches
	// because size⊥frequency. Allow sampling noise.
	if s.MeanFileSize < 450e6 || s.MeanFileSize > 650e6 {
		t.Errorf("mean file size %v want ≈544 MB", s.MeanFileSize)
	}
	if s.MeanRequestSize < 400e6 || s.MeanRequestSize > 700e6 {
		t.Errorf("mean requested size %v want ≈544 MB", s.MeanRequestSize)
	}
	// Paper: size distribution ≈ linear in log-log over 80 bins.
	fit := tr.SizeZipfFit(80)
	if fit.Slope >= 0 {
		t.Errorf("log-log slope %v want negative", fit.Slope)
	}
	if fit.R2 < 0.8 {
		t.Errorf("log-log R²=%v want > 0.8 (\"almost linear\")", fit.R2)
	}
	// Paper: no significant size-frequency relationship.
	if c := tr.SizeFrequencyCorrelation(); math.Abs(c) > 0.05 {
		t.Errorf("size-frequency correlation %v want ≈0", c)
	}
	// Paper: minimum storage ≈ 95 disks of 500 GB.
	disks := float64(s.TotalBytes) / 500e9
	if disks < 75 || disks > 115 {
		t.Errorf("population needs %.1f disks of 500GB, paper says ≈95", disks)
	}
}

func TestNERSCBatchingProducesSimultaneousRequests(t *testing.T) {
	c := DefaultNERSC(8)
	c.NumFiles = 5000
	c.NumRequests = 20000
	c.BatchFraction = 0.5
	c.BatchSize = 4
	tr, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Time == tr.Requests[i-1].Time {
			same++
		}
	}
	if same < 1000 {
		t.Errorf("only %d simultaneous request pairs — batching not effective", same)
	}
}

func TestNERSCNoBatching(t *testing.T) {
	c := DefaultNERSC(9)
	c.NumFiles = 2000
	c.NumRequests = 5000
	c.BatchFraction = 0
	tr, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 5000 {
		t.Fatalf("requests=%d", len(tr.Requests))
	}
}

func TestNERSCValidate(t *testing.T) {
	good := DefaultNERSC(1)
	bad := []func(*NERSC){
		func(c *NERSC) { c.NumFiles = 0 },
		func(c *NERSC) { c.NumRequests = -1 },
		func(c *NERSC) { c.Duration = 0 },
		func(c *NERSC) { c.MinSize = 0 },
		func(c *NERSC) { c.MaxSize = c.MinSize },
		func(c *NERSC) { c.MeanSize = 0.5 },
		func(c *NERSC) { c.BatchFraction = 1.5 },
		func(c *NERSC) { c.BatchSize = 1 },
	}
	for i, mutate := range bad {
		c := good
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a, err := DefaultSynthetic(3, 123).Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultSynthetic(3, 123).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("nondeterministic request count")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("nondeterministic request stream")
		}
	}
}

// TestFilesMatchBuild: each generator's Files is the population its
// Build returns, so planning over Files allocates what a run simulates.
func TestFilesMatchBuild(t *testing.T) {
	nersc := DefaultNERSC(7)
	nersc.NumFiles, nersc.NumRequests = 2000, 3000
	for _, g := range []interface {
		Build() (*trace.Trace, error)
		Files() ([]trace.FileInfo, error)
	}{DefaultSynthetic(3, 7), nersc, DefaultBursty(2, 7)} {
		tr, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		files, err := g.Files()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(files, tr.Files) {
			t.Errorf("%T: Files differs from Build's population", g)
		}
	}
}

func BenchmarkSyntheticBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := DefaultSynthetic(6, int64(i))
		if _, err := c.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAliasSample(b *testing.B) {
	a := NewAlias(ZipfWeights(40000, DefaultTheta))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(rng)
	}
}

// TestDriftingWorkloadActuallyDrifts checks BuildDrifting rotates the
// hot set: the 50 most-requested files of the first half of the trace
// and of the second half overlap by at most half.
func TestDriftingWorkloadActuallyDrifts(t *testing.T) {
	cfg := DefaultNERSC(5)
	cfg.NumFiles = 3000
	cfg.NumRequests = 6000
	cfg.Duration = 6000 / 0.0447 // keep the paper's arrival rate
	tr, err := cfg.BuildDrifting(2)
	if err != nil {
		t.Fatal(err)
	}
	half := tr.Duration / 2
	counts := [2]map[int]int{{}, {}}
	for _, r := range tr.Requests {
		k := 0
		if r.Time >= half {
			k = 1
		}
		counts[k][r.FileID]++
	}
	topN := func(m map[int]int, n int) map[int]bool {
		type kv struct{ id, c int }
		all := make([]kv, 0, len(m))
		for id, c := range m {
			all = append(all, kv{id, c})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].c != all[b].c {
				return all[a].c > all[b].c
			}
			return all[a].id < all[b].id
		})
		out := map[int]bool{}
		for i := 0; i < n && i < len(all); i++ {
			out[all[i].id] = true
		}
		return out
	}
	a, b := topN(counts[0], 50), topN(counts[1], 50)
	overlap := 0
	for id := range a {
		if b[id] {
			overlap++
		}
	}
	if overlap > 25 {
		t.Errorf("top-50 overlap %d/50 — popularity did not drift", overlap)
	}
}

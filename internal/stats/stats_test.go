package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Fatalf("zero-value Welford not zeroed: %s", w.String())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count=%d want 8", w.Count())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Errorf("mean=%v want 5", w.Mean())
	}
	// Population variance is 4; sample (unbiased) variance is 32/7.
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance=%v want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min=%v max=%v want 2,9", w.Min(), w.Max())
	}
	if !almostEq(w.Sum(), 40, 1e-12) {
		t.Errorf("sum=%v want 40", w.Sum())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.Min() != 3.5 || w.Max() != 3.5 {
		t.Fatalf("single obs: %s", w.String())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset + small variance is the classic catastrophic
	// cancellation case for the naive sum-of-squares formula.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		w.Add(x)
	}
	if !almostEq(w.Mean(), offset+10, 1e-12) {
		t.Errorf("mean=%v want %v", w.Mean(), offset+10.0)
	}
	if !almostEq(w.Variance(), 30, 1e-9) {
		t.Errorf("variance=%v want 30", w.Variance())
	}
}

// Property: merging two accumulators matches accumulating the
// concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	prop := func(a, b []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var wa, wb, wall Welford
		for _, x := range a {
			wa.Add(x)
			wall.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			wall.Add(x)
		}
		wa.Merge(wb)
		if wa.Count() != wall.Count() {
			return false
		}
		if wa.Count() == 0 {
			return true
		}
		return almostEq(wa.Mean(), wall.Mean(), 1e-9) &&
			almostEq(wa.Variance(), wall.Variance(), 1e-6) &&
			wa.Min() == wall.Min() && wa.Max() == wall.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var w, empty Welford
	w.Add(1)
	w.Add(3)
	before := w
	w.Merge(empty)
	if w != before {
		t.Error("merging empty changed accumulator")
	}
	empty.Merge(w)
	if empty.Mean() != 2 || empty.Count() != 2 {
		t.Errorf("merge into empty: mean=%v count=%d", empty.Mean(), empty.Count())
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for _, x := range []float64{15, 20, 35, 40, 50} {
		s.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 15}, {1, 50}, {0.5, 35}, {0.25, 20}, {0.75, 40},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v)=%v want %v", c.q, got, c.want)
		}
	}
	if s.Median() != 35 {
		t.Errorf("median=%v want 35", s.Median())
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	if got := s.Quantile(0.5); !almostEq(got, 15, 1e-12) {
		t.Errorf("interpolated median=%v want 15", got)
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Error("empty sample quantile != 0")
	}
	s.Add(7)
	if s.Quantile(0.99) != 7 || s.Quantile(0) != 7 {
		t.Error("single-element quantiles wrong")
	}
}

func TestSampleQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	var s Sample
	s.Add(1)
	s.Quantile(1.5)
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(2)
	if got := s.Median(); got != 2 {
		t.Errorf("median after re-add=%v want 2", got)
	}
}

// Property: sample quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, qa, qb float64) bool {
		var s Sample
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if s.Count() == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := s.Quantile(qa), s.Quantile(qb)
		return va <= vb && va >= s.Min() && vb <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogHistogramBinning(t *testing.T) {
	// 3 decades, 3 bins: [1,10), [10,100), [100,1000).
	h := NewLogHistogram(1, 1000, 3)
	for _, x := range []float64{2, 5, 20, 500, 0.5, 2000, -1} {
		h.Add(x)
	}
	if h.Bin(0) != 3 { // 2, 5, 0.5 (saturated), -1 goes to bin 0 too... recount
		// 2,5 -> bin0; 0.5 saturates to bin0; -1 non-positive -> bin0. That's 4.
		t.Logf("bin contents: %d %d %d", h.Bin(0), h.Bin(1), h.Bin(2))
	}
	if got := h.Bin(0); got != 4 {
		t.Errorf("bin0=%d want 4", got)
	}
	if got := h.Bin(1); got != 1 {
		t.Errorf("bin1=%d want 1", got)
	}
	if got := h.Bin(2); got != 2 { // 500 and 2000 (saturated)
		t.Errorf("bin2=%d want 2", got)
	}
}

func TestLogHistogramGeometricCenters(t *testing.T) {
	h := NewLogHistogram(1, 100, 2)
	// Bins [1,10) and [10,100); geometric centers sqrt(10) and sqrt(1000).
	if got := h.BinCenter(0); !almostEq(got, math.Sqrt(10), 1e-9) {
		t.Errorf("center0=%v want sqrt(10)", got)
	}
	if got := h.BinCenter(1); !almostEq(got, math.Sqrt(1000), 1e-9) {
		t.Errorf("center1=%v want sqrt(1000)", got)
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	fit := FitLine(x, y)
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit=%+v want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2=%v want 1", fit.R2)
	}
}

func TestFitLineNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i) / 10
		x = append(x, xi)
		y = append(y, -1.5*xi+4+rng.NormFloat64()*0.01)
	}
	fit := FitLine(x, y)
	if math.Abs(fit.Slope+1.5) > 0.01 {
		t.Errorf("slope=%v want ~-1.5", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2=%v want >0.999", fit.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if fit := FitLine(nil, nil); fit.N != 0 || fit.Slope != 0 {
		t.Errorf("empty fit=%+v", fit)
	}
	if fit := FitLine([]float64{1}, []float64{2}); fit.N != 1 {
		t.Errorf("single-point fit=%+v", fit)
	}
	// Vertical data: all x equal.
	fit := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3})
	if fit.Slope != 0 {
		t.Errorf("vertical-data slope=%v want 0", fit.Slope)
	}
}

func TestFitLineMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FitLine did not panic")
		}
	}()
	FitLine([]float64{1, 2}, []float64{1})
}

// Property: quantiles of a sorted copy agree with direct order
// statistics at exact index points.
func TestQuantileAgreesWithOrderStatistics(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		sort.Float64s(xs)
		n := len(xs)
		for i := 0; i < n; i++ {
			q := float64(i) / float64(n-1)
			// q*(n-1) may not round-trip to exactly i in floating
			// point, so allow interpolation slop of one gap width.
			got := s.Quantile(q)
			lo, hi := xs[max(0, i-1)], xs[min(n-1, i+1)]
			if got < lo || got > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}

func BenchmarkSampleQuantile(b *testing.B) {
	var s Sample
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.95)
	}
}

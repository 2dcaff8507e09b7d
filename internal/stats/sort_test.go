package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// FuzzSortFloat64s holds the radix kernel to sort.Float64s. The input
// is the little-endian words of data, then extra more values (up to
// 2^17), each a data word with the bits of mask drawn at random: mask 0
// repeats the words, a mask over a few bytes leaves the other digits
// shared by every key, and a full mask gives arbitrary bits, NaNs
// included. The two sorts must agree bit for bit once every −0 is made
// +0 (sort.Float64s may put ±0 either way round); with the −0s kept,
// the kernel must put them first among the zeros.
func FuzzSortFloat64s(f *testing.F) {
	words := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	const (
		all      = ^uint64(0)
		mantissa = 1<<52 - 1
		// Positive exponents 2^-63 to 2^64 and any mantissa.
		spread = 0x03F<<52 | mantissa
	)
	seeds := []struct {
		data  []byte
		extra uint32
		mask  uint64
	}{
		{nil, 0, 0},
		{words(3, 1, 2), 0, 0},
		{words(2, 2, 7, 2, 7, 1), 1000, 0},             // duplicates only
		{words(0, negZero, 0, negZero, 1, -1), 600, 0}, // zeros of both signs
		{words(sub, -sub, 2*sub, math.SmallestNonzeroFloat64*1e10, 0), 2000, mantissa}, // subnormals
		{words(math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0), 300, 0},
		{words(-1.5, 2.5, -1e300, 1e-300), 3000, 1<<63 | mantissa},                     // negatives
		{words(1), radixCutoff - 2, mantissa},                                          // just below the cutoff
		{words(1), radixCutoff - 1, mantissa},                                          // at it
		{words(1), radixCutoff, mantissa},                                              // just above it
		{append(words(2, math.Nextafter(2, 3)), bytes.Repeat(words(2), 298)...), 0, 0}, // one key off in one digit
		{words(1), 4096, 0xFF00},                                                       // one pass: result in scratch
		{words(1), 4096, 0xFFFF},                                                       // two passes
		{words(1), 4096, 0x00FF_0000_0000_FF00},
		{words(1, 0.25, 900), 1 << 17, spread},
		{words(1), 1 << 17, all}, // NaNs: the sort.Float64s fallback
		{words(math.NaN(), 1, -1), 10, 0},
	}
	for _, s := range seeds {
		f.Add(s.data, s.extra, s.mask)
	}
	f.Fuzz(func(t *testing.T, data []byte, extra uint32, mask uint64) {
		var xs []float64
		for i := 0; i+8 <= len(data); i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		base := len(xs)
		n := int(extra % (1<<17 + 1))
		state := uint64(n) ^ mask
		for i := 0; i < n; i++ {
			var w uint64
			if base > 0 {
				w = math.Float64bits(xs[i%base])
			}
			// splitmix64
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			z ^= z >> 31
			xs = append(xs, math.Float64frombits(w^z&mask))
		}

		plain := slices.Clone(xs)
		negZeros, hasNaN := 0, false
		for i, x := range plain {
			switch {
			case x != x:
				hasNaN = true
			case x == 0:
				if math.Signbit(x) {
					negZeros++
				}
				plain[i] = 0
			}
		}
		want := slices.Clone(plain)
		sort.Float64s(want)
		got := slices.Clone(plain)
		scratch := dirty(len(got) / 2)
		scratch = SortFloat64s(got, scratch)
		requireBits(t, "without −0", got, want)
		if len(got) >= radixCutoff && !hasNaN && cap(scratch) < len(got) {
			t.Fatalf("scratch returned with capacity %d for %d values", cap(scratch), len(got))
		}
		if negZeros == 0 || hasNaN {
			return
		}
		i := sort.SearchFloat64s(want, 0)
		for j := i; j < i+negZeros; j++ {
			want[j] = math.Copysign(0, -1)
		}
		got = slices.Clone(xs)
		SortFloat64s(got, dirty(len(got)+3))
		requireBits(t, "with −0", got, want)
	})
}

// dirty returns a scratch buffer full of values a sort must not leak.
func dirty(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = -7e77
	}
	return s
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: %d values: index %d is %v (%#x), sort.Float64s has %v (%#x)",
				what, len(want), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSortKeepsScratch pins the allocation contract: with a scratch
// as long as the input, sorting allocates nothing, and a Sample's
// scratch survives Reset, so a per-window sample sorts without
// allocating once it has seen its largest window.
func TestSortKeepsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 4096)
	fill := func() {
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
	}
	fill()
	scratch := SortFloat64s(xs, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		scratch = SortFloat64s(xs, scratch)
	}); allocs != 0 {
		t.Errorf("sorting %d values with a scratch allocates %v objects per run", len(xs), allocs)
	}
	var s Sample
	window := func() {
		s.Reset()
		for i := 0; i < 3000; i++ {
			s.Add(rng.ExpFloat64())
		}
		_ = s.Quantile(0.95)
	}
	window()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Errorf("a reset Sample allocates %v objects per window", allocs)
	}
}

// BenchmarkSortFloat64s sorts the same response-time-like values with
// the radix kernel and with sort.Float64s.
func BenchmarkSortFloat64s(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 20} {
		rng := rand.New(rand.NewSource(9))
		src := make([]float64, n)
		for i := range src {
			src[i] = 0.01 + 20*rng.ExpFloat64()
		}
		xs := make([]float64, n)
		var scratch []float64
		b.Run("radix/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				scratch = SortFloat64s(xs, scratch)
			}
		})
		b.Run("pdqsort/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				sort.Float64s(xs)
			}
		})
	}
}

package stats

import (
	"math"
	"slices"
	"sort"
)

// radixCutoff is the length below which SortFloat64s hands the slice
// to slices.Sort: there the counting pass and up to eight scatter
// passes over 256-entry tables cost more than a comparison sort.
const radixCutoff = 256

// SortFloat64s sorts xs ascending in place and returns scratch, grown
// to len(xs) when it was shorter, for the caller to pass again. It is
// an LSD radix sort on 8-bit digits of an order-preserving key: one
// counting pass fills all eight digit histograms, and a digit every
// key shares is skipped, so sorting costs O(n) and the scratch is the
// only allocation. On input without NaN it yields what sort.Float64s
// yields, bit for bit, except that −0 precedes +0 (sort.Float64s
// leaves them in either order). Input containing NaN is sorted by
// sort.Float64s itself, so NaNs keep that order too.
func SortFloat64s(xs, scratch []float64) []float64 {
	n := len(xs)
	if n < radixCutoff {
		slices.Sort(xs)
		return scratch
	}
	var counts [8][256]int
	for _, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return scratch
		}
		k := radixKey(x)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	src, dst := xs, scratch[:n]
	first := radixKey(xs[0])
	for p := range counts {
		shift := uint(8 * p)
		c := &counts[p]
		if c[byte(first>>shift)] == n {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d] = sum
			sum += k
		}
		for _, x := range src {
			d := byte(radixKey(x) >> shift)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return scratch
}

// radixKey maps a float to a key whose unsigned order is the float
// order: a negative float has every bit flipped, a non-negative one
// only its sign bit.
func radixKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// Biased exponents of the binades TestAppendFloatBoundaries and
// FuzzAppendFloat sweep: 2^−20 up to 2^72, which hold every plain
// decimal encoding/json writes (1e-6 ≤ |f| < 1e21) and reach a little
// past it on both sides.
const (
	plainBinadeLo = 1003
	plainBinades  = 92
)

// TestAppendFloatBoundaries holds the kernel to strconv, in both signs,
// where an exact algorithm is easiest to get wrong: both ends of every
// binade (a power of two's interval is lopsided), seeded random
// mantissas inside them, the neighbours of each power of ten (where the
// digit count changes), and integers: those around 2^53, where the
// floats' spacing grows from 1 to 2, and random ones below 2^62.
func TestAppendFloatBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got, want [32]byte
	check := func(f float64) {
		for _, x := range [2]float64{f, -f} {
			g := appendShortest(got[:0], x)
			w := strconv.AppendFloat(want[:0], x, 'f', -1, 64)
			if !bytes.Equal(g, w) {
				t.Fatalf("%#x (%g): kernel wrote %s, strconv wrote %s", math.Float64bits(x), x, g, w)
			}
		}
	}
	for be := uint64(plainBinadeLo); be < plainBinadeLo+plainBinades; be++ {
		for m := uint64(0); m < 1000; m++ {
			check(math.Float64frombits(be<<52 | m))
			check(math.Float64frombits(be<<52 | (1<<52 - 1 - m)))
		}
		for i := 0; i < 20000; i++ {
			check(math.Float64frombits(be<<52 | rng.Uint64()&(1<<52-1)))
		}
	}
	for e := -6; e <= 20; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		up, down := p, p
		check(p)
		for i := 0; i < 1000; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			check(up)
			check(down)
		}
	}
	for i := int64(-1000); i <= 1000; i++ {
		check(float64(1<<53 + i))
	}
	for i := 0; i < 200000; i++ {
		check(float64(rng.Int63n(1 << 62)))
	}
}

// TestPow10Table recomputes pow10Table with math/big: entry i is
// g = ⌊10^e·2^−r⌋ + 1 for e = pow10Min + i, with r = ⌊log2 10^e⌋ − 127
// as shortest derives it, and g lies in [2^127, 2^128).
func TestPow10Table(t *testing.T) {
	if want := 22 - pow10Min + 1; len(pow10Table) != want {
		t.Fatalf("pow10Table has %d entries, want %d (1e%d … 1e22)", len(pow10Table), want, pow10Min)
	}
	for i, got := range pow10Table {
		e := pow10Min + i
		x := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			x.Inv(x)
		}
		r := (e*1741647)>>19 - 127 // negative for every entry
		x.Mul(x, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(-r))))
		g := new(big.Int).Quo(x.Num(), x.Denom())
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 128 {
			t.Errorf("1e%d: g has %d bits, want 128", e, g.BitLen())
		}
		want := [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), new(big.Int).And(g, new(big.Int).SetUint64(math.MaxUint64)).Uint64()}
		if got != want {
			t.Errorf("pow10Table[%d] (1e%d) = {%#x, %#x}, want {%#x, %#x}", i, e, got[0], got[1], want[0], want[1])
		}
	}
}

// FuzzAppendFloat holds appendFloat to encoding/json: for the float
// with the input's bits, and for the float with its mantissa and sign
// moved into the binades around the plain-decimal range (where random
// bits land about 4.5% of the time), appendFloat writes exactly the
// bytes json.Marshal does, or both fail.
func FuzzAppendFloat(f *testing.F) {
	for _, seed := range []float64{
		0, math.Copysign(0, -1), 5e-324,
		1e-6, math.Nextafter(1e-6, 0),
		math.Ldexp(1, -20), math.Ldexp(1, 69),
		math.Nextafter(1e21, 0), 1e21,
		1<<53 - 1, 1<<53 + 2,
		0.1, 1.0 / 3, math.MaxFloat64,
		10589223098.096766, // a 17-digit ts from the seed-1 controlled-diurnal trace
	} {
		f.Add(math.Float64bits(seed))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		plain := u&(1<<63|1<<52-1) | (plainBinadeLo+u%plainBinades)<<52
		for _, x := range []float64{math.Float64frombits(u), math.Float64frombits(plain)} {
			want, werr := json.Marshal(x)
			got, gerr := appendFloat(nil, x)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%#x: json.Marshal error %v, appendFloat error %v", math.Float64bits(x), werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%#x: appendFloat wrote %s, json.Marshal wrote %s", math.Float64bits(x), got, want)
			}
		}
	})
}

// traceFloats returns the ts and dur values, in microseconds, of every
// disk segment rec renders.
func traceFloats(rec *TraceRecorder) []float64 {
	var fs []float64
	for _, tl := range rec.tracks {
		var pts []statePoint
		for _, chunk := range tl {
			pts = append(pts, chunk...)
		}
		for i, p := range pts {
			end := max(rec.horizon, p.at)
			if i+1 < len(pts) {
				end = pts[i+1].at
			}
			fs = append(fs, usec(p.at), usec(end-p.at))
		}
	}
	return fs
}

// BenchmarkAppendFloat formats the ts and dur values of a
// controlled-diurnal-shaped recording's disk segments (18 disks × 4096
// state changes), in microseconds as the trace writes them: the cost
// per float of the kernel, against the strconv call it replaced.
func BenchmarkAppendFloat(b *testing.B) {
	fs := traceFloats(diurnalShapedTrace(18, 4096))
	buf := make([]byte, 0, 64)
	run := func(b *testing.B, format func([]byte, float64) []byte) {
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				buf = format(buf[:0], f)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(fs)), "ns/float")
	}
	b.Run("kernel", func(b *testing.B) {
		run(b, func(b []byte, f float64) []byte {
			b, _ = appendFloat(b, f)
			return b
		})
	})
	b.Run("strconv", func(b *testing.B) {
		run(b, func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) })
	})
}

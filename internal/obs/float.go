package obs

import (
	"math"
	"math/bits"
)

// Shortest decimal formatting of trace floats. encoding/json writes a
// float64 from 1e-6 up to, not including, 1e21 as strconv's shortest
// plain decimal: the fewest significant digits that parse back to the
// same float, the nearer of two candidates, the even one on a tie.
// Those digits are unique, so any exact algorithm writes the same
// bytes. appendShortest computes them with Giulietti's Schubfach ("The
// Schubfach way to render doubles", 2020) in its round-to-odd form,
// which for this range needs only 28 powers of ten.

// pow10Min is the exponent of pow10Table's first entry.
const pow10Min = -5

// pow10Table holds g = ⌊10^e·2^−r⌋ + 1 for e = pow10Min … 22, as
// {high, low} 64-bit halves, where r = ⌊log2 10^e⌋ − 127 puts g in
// [2^127, 2^128). TestPow10Table recomputes every entry.
var pow10Table = [...][2]uint64{
	{0xa7c5ac471b478423, 0x0fcf80dc33721d54}, // 1e-5
	{0xd1b71758e219652b, 0xd3c36113404ea4a9}, // 1e-4
	{0x83126e978d4fdf3b, 0x645a1cac083126ea}, // 1e-3
	{0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4}, // 1e-2
	{0xcccccccccccccccc, 0xcccccccccccccccd}, // 1e-1
	{0x8000000000000000, 0x0000000000000001}, // 1e0
	{0xa000000000000000, 0x0000000000000001}, // 1e1
	{0xc800000000000000, 0x0000000000000001}, // 1e2
	{0xfa00000000000000, 0x0000000000000001}, // 1e3
	{0x9c40000000000000, 0x0000000000000001}, // 1e4
	{0xc350000000000000, 0x0000000000000001}, // 1e5
	{0xf424000000000000, 0x0000000000000001}, // 1e6
	{0x9896800000000000, 0x0000000000000001}, // 1e7
	{0xbebc200000000000, 0x0000000000000001}, // 1e8
	{0xee6b280000000000, 0x0000000000000001}, // 1e9
	{0x9502f90000000000, 0x0000000000000001}, // 1e10
	{0xba43b74000000000, 0x0000000000000001}, // 1e11
	{0xe8d4a51000000000, 0x0000000000000001}, // 1e12
	{0x9184e72a00000000, 0x0000000000000001}, // 1e13
	{0xb5e620f480000000, 0x0000000000000001}, // 1e14
	{0xe35fa931a0000000, 0x0000000000000001}, // 1e15
	{0x8e1bc9bf04000000, 0x0000000000000001}, // 1e16
	{0xb1a2bc2ec5000000, 0x0000000000000001}, // 1e17
	{0xde0b6b3a76400000, 0x0000000000000001}, // 1e18
	{0x8ac7230489e80000, 0x0000000000000001}, // 1e19
	{0xad78ebc5ac620000, 0x0000000000000001}, // 1e20
	{0xd8d726b7177a8000, 0x0000000000000001}, // 1e21
	{0x878678326eac9000, 0x0000000000000001}, // 1e22
}

// appendShortest appends f as strconv.AppendFloat(b, f, 'f', -1, 64)
// does, for f in the binades from 2^−20 up to 2^72, which hold every
// float encoding/json writes as a plain decimal: a sign, then the
// integer part padded with zeros, then '.' and the fraction, or, below
// 1, "0." with the fraction's leading zeros.
func appendShortest(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	// f is normal: f = ±c·2^q with 2^52 ≤ c < 2^53.
	d, e := shortest(u&(1<<52-1)|1<<52, int(u>>52&0x7ff)-1075)
	return appendDecimal(b, d, e)
}

// shortest returns the shortest decimal d·10^e, d without trailing
// zeros, that rounds to c·2^q; on a tie in length, the nearer, and on a
// tie in distance, the one with an even last digit. The rounding
// interval runs half an ulp either side of c·2^q (a quarter below a
// power of two, where the float below is nearer) and includes its ends
// when c is even, as round-half-to-even parsing does.
func shortest(c uint64, q int) (d uint64, e int) {
	odd := c & 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := (q * 1262611) >> 22 // ⌊log10 2^q⌋
	if c == 1<<52 {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log10 (3/4·2^q)⌋
	}
	// Scale the interval's ends and c by 4·10^−k; h in [1, 4] puts the
	// 128-bit g's binary point at bit 128 of each product.
	g := &pow10Table[-k-pow10Min]
	h := uint(q + ((-k * 1741647) >> 19) + 1) // ⌊log2 10^−k⌋ = (−k·1741647) >> 19
	lower := roundToOdd(g, cbl<<h) + odd
	vb := roundToOdd(g, cb<<h)
	upper := roundToOdd(g, cbr<<h) - odd

	// s·10^k ≤ c·2^q < (s+1)·10^k, and s has 16 or 17 digits. The
	// interval is narrower than 10^(k+1), so it holds at most one
	// multiple of 10^(k+1): if it holds one of the two that bracket
	// c·2^q, that one is the shortest.
	s := vb >> 2
	sp := s / 10
	if upin, wpin := lower <= 40*sp, 40*sp+40 <= upper; upin != wpin {
		if wpin {
			sp++
		}
		return stripZeros(sp, k+1)
	}
	// Otherwise the shortest has s's length, and s or s+1, the nearer
	// (the even on a tie) if both lie inside.
	if uin, win := lower <= 4*s, 4*s+4 <= upper; uin != win {
		if win {
			s++
		}
		return stripZeros(s, k)
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return stripZeros(s, k)
}

// roundToOdd returns cp·g / 2^128 rounded to odd: its integer part,
// with the low bit set if a fraction remains. The fraction's top 64
// bits decide: g overstates 10^−k·2^−r by at most 1, which adds less
// than cp < 2^59 to the 128-bit fraction, while a fraction the exact
// quotient has is at least 2^−51 for every q these binades hold.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(yLo, xHi, 0)
	v := yHi + carry
	if z != 0 {
		v |= 1
	}
	return v
}

// stripZeros returns d·10^e with d's trailing zeros moved into e.
func stripZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// maxPlainLen bounds the bytes appendDecimal writes for a float from
// 2^−20 up to 2^72: 22 integer digits, or "0.", 6 zeros and 17 digits.
const maxPlainLen = 25

// appendDecimal appends d·10^e, with d > 0 and no trailing zero in d,
// in strconv's 'f' layout: the integer part padded with zeros, then
// '.' and the fraction, or, below 1, "0.", the fraction's leading
// zeros and d.
func appendDecimal(b []byte, d uint64, e int) []byte {
	n := decimalLen(d)
	dp := n + e // digits before the point
	i := len(b)
	if cap(b)-i < maxPlainLen {
		b = append(b, make([]byte, maxPlainLen)...)
	}
	switch {
	case e >= 0:
		b = b[:i+dp]
		putDigits(b[i:i+n], d)
		for j := i + n; j < len(b); j++ {
			b[j] = '0'
		}
	case dp > 0:
		b = b[:i+n+1]
		p := uint64Pow10[-e]
		hi := d / p
		putDigits(b[i:i+dp], hi)
		b[i+dp] = '.'
		putDigits(b[i+dp+1:], d-hi*p)
	default:
		b = b[:i+2-dp+n]
		b[i], b[i+1] = '0', '.'
		for j := i + 2; j < i+2-dp; j++ {
			b[j] = '0'
		}
		putDigits(b[i+2-dp:], d)
	}
	return b
}

// uint64Pow10 holds 10^0 … 10^19.
var uint64Pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^len⌋: the count, or one short
	if d >= uint64Pow10[n] {
		n++
	}
	return n
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits fills dst with d's last len(dst) decimal digits, zeros
// first if d has fewer: eight at a time, then two at a time, through
// digitPairs.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	for i >= 8 {
		q := d / 1e8
		r := uint32(d - q*1e8)
		hi, lo := r/10000, r%10000
		a, b, c, e := 2*(hi/100), 2*(hi%100), 2*(lo/100), 2*(lo%100)
		t := (*[8]byte)(dst[i-8 : i])
		t[0], t[1], t[2], t[3] = digitPairs[a], digitPairs[a+1], digitPairs[b], digitPairs[b+1]
		t[4], t[5], t[6], t[7] = digitPairs[c], digitPairs[c+1], digitPairs[e], digitPairs[e+1]
		d, i = q, i-8
	}
	r := uint32(d)
	for i >= 2 {
		q := r / 100
		j := 2 * (r - q*100)
		i -= 2
		dst[i], dst[i+1] = digitPairs[j], digitPairs[j+1]
		r = q
	}
	if i == 1 {
		dst[0] = byte('0' + r)
	}
}

package matio

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// appendFloat appends v as encoding/json writes a float64, byte for byte:
// the shortest digits that round-trip, in 'f' layout for ±0 and
// 1e-6 ≤ |v| < 1e21 and in 'e' layout otherwise, with a one-digit
// negative exponent unpadded (e-7, not e-07). ok is false, and b
// unextended, for NaN and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, v float64) (_ []byte, ok bool) {
	u := math.Float64bits(v)
	exp := int(u>>52) & 0x7FF
	mant := u & (1<<52 - 1)
	switch {
	case exp == 0x7FF:
		return b, false
	case exp == 0 && mant == 0:
		if u>>63 != 0 {
			return append(b, "-0"...), true
		}
		return append(b, '0'), true
	case exp == 0: // subnormal
		exp++
	default:
		mant |= 1 << 52
	}
	d, e := schubfach(mant, exp-1075)
	nd := decimalLen(d)
	dp := nd + e // v = 0.digits × 10^dp: the point falls after the first dp digits

	// Write into spare capacity, then keep what was written. A number
	// takes at most 25 bytes; the word stores below may run past its end,
	// but never past byte 34.
	const room = 48
	n := len(b)
	if cap(b)-n < room {
		b = append(b, make([]byte, room)...)
	}
	dst := b[n : n+room]
	p := int(u >> 63)
	dst[0] = '-'
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		// d.ddde±x: the digits one place right, the first moved left over
		// a point that goes unused when there is only one digit.
		putDigits(dst[p+1:], d, nd)
		dst[p] = dst[p+1]
		dst[p+1] = '.'
		p += nd + 1
		if nd == 1 {
			p--
		}
		return appendExp(b[:n+p], dp-1), true
	}
	switch {
	case dp <= 0: // 0.000ddd, at most five zeros after the point
		binary.LittleEndian.PutUint64(dst[p:], '0'|'.'<<8|0x3030303030300000)
		putDigits(dst[p+2-dp:], d, nd)
		p += 2 - dp + nd
	case dp < nd: // ddd.ddd: the fraction, at most 16 digits, moves a place right
		putDigits(dst[p:], d, nd)
		f := dst[p+dp:]
		lo, hi := binary.LittleEndian.Uint64(f), binary.LittleEndian.Uint64(f[8:])
		binary.LittleEndian.PutUint64(f[1:], lo)
		binary.LittleEndian.PutUint64(f[9:], hi)
		f[0] = '.'
		p += nd + 1
	default: // ddd000, at most 21 places
		putDigits(dst[p:], d, nd)
		for i := nd; i < dp; i += 8 {
			binary.LittleEndian.PutUint64(dst[p+i:], 0x3030303030303030)
		}
		p += dp
	}
	return b[:n+p], true
}

// appendExp appends strconv's 'e' exponent for x, e±dd or e±ddd, with
// encoding/json's one change: a negative one-digit exponent loses its
// leading zero.
func appendExp(b []byte, x int) []byte {
	sign := byte('+')
	if x < 0 {
		sign, x = '-', -x
	}
	switch {
	case x < 10 && sign == '-':
		return append(b, 'e', sign, byte(x)+'0')
	case x < 100:
		return append(b, 'e', sign, byte(x/10)+'0', byte(x%10)+'0')
	default:
		return append(b, 'e', sign, byte(x/100)+'0', byte(x/10%10)+'0', byte(x%10)+'0')
	}
}

// pow10u64 holds 10^i for every power of ten a uint64 can hold.
var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2 · bit length⌋, one short or exact
	if d >= pow10u64[n] {
		n++
	}
	return n
}

// putDigits writes the nd decimal digits of d < 10^17 to dst[:nd], eight
// at a time; the bytes after them, up to dst[8], may be overwritten.
func putDigits(dst []byte, d uint64, nd int) {
	switch {
	case nd <= 8:
		binary.LittleEndian.PutUint64(dst, digits8(d)>>(64-8*nd))
	case nd <= 16:
		binary.LittleEndian.PutUint64(dst, digits8(d/1e8)>>(128-8*nd))
		binary.LittleEndian.PutUint64(dst[nd-8:], digits8(d%1e8))
	default:
		dst[0] = byte(d/1e16) + '0'
		d %= 1e16
		binary.LittleEndian.PutUint64(dst[1:], digits8(d/1e8))
		binary.LittleEndian.PutUint64(dst[9:], digits8(d%1e8))
	}
}

// digits8 returns the eight decimal digits of v < 10^8, zero-padded, as
// ASCII bytes in a little-endian word: the first digit is the low byte.
// Each step splits every lane in two at once: 4+4 digits in 32-bit lanes,
// 2+2 in 16-bit lanes, 1+1 in bytes. The lane quotients come from
// multiplying by a rounded-up reciprocal, exact for these ranges
// (⌊y·10486/2^20⌋ = ⌊y/100⌋ for y < 10^4, ⌊z·103/2^10⌋ = ⌊z/10⌋ for
// z < 100), and no lane's product reaches the next lane.
func digits8(v uint64) uint64 {
	x := v<<32 - v/1e4*(1e4<<32-1)
	x = x<<16 - (x*10486>>20&0x0000007F0000007F)*(100<<16-1)
	x = x<<8 - (x*103>>10&0x000F000F000F000F)*(10<<8-1)
	return x + 0x3030303030303030
}

// schubfach returns the shortest decimal d × 10^e, d without trailing
// zeros, that rounds to v = c × 2^q > 0; of several as short, the one
// nearest v, ties to even d. It is the algorithm of Giulietti, "The
// Schubfach way to render doubles" (2020).
//
// In units of 2^(q-2), v is 4c, and the reals that round to it fill
// [4c-2, 4c+2], ends included when c is even; at a power of two above
// the subnormals the next float down is half as near, so the interval
// starts at 4c-1. For 10^k no wider than the interval and s = ⌊v/10^k⌋,
// it holds s·10^k or (s+1)·10^k, and at most one multiple of 10^(k+1),
// which can only be 10⌊s/10⌋ or the next one up. The bounds and v are
// scaled by g, 10^-k rounded up to 126 bits, and each product keeps two
// bits below the units of 10^k and is rounded to odd, its low bit
// marking an inexact one; that is enough to make every comparison below
// as the exact values would.
func schubfach(c uint64, q int) (d uint64, e int) {
	// Both floors below are exact for every q a float64 has.
	cb := c << 2
	cbl, k := cb-2, q*315653>>20 // ⌊log10 2^q⌋
	if c == 1<<52 && q > -1074 {
		cbl, k = cb-1, (q*315653-131007)>>20 // ⌊log10(¾·2^q)⌋
	}
	// g = ⌊10^-k·2^(125-r)⌋ + 1, r = ⌊log2 10^-k⌋, is pow10Tab's 10^-k
	// shifted right by two, plus one. Then 4v·10^-k = cb·2^q·10^-k
	// ≈ (cb·2^h)·g / 2^128.
	pow := &pow10Tab[-k-minPow10]
	g0, carry := bits.Add64(pow[1]<<62|pow[0]>>2, 1, 0)
	g1 := pow[1]>>2 + carry
	h := q + -k*217706>>16 + 3 // q + r + 3, in [3, 6]: cb·2^h < 2^61
	// rop rounds x·g / 2^128 to odd: the floor, its low bit set when the
	// quotient is not whole. It leaves out the product's lowest word: x
	// times g's own error reaches 2^61 there, so bits set in it do not
	// show an inexact quotient.
	rop := func(x uint64) uint64 {
		hi0, _ := bits.Mul64(g0, x)
		hi, lo := bits.Mul64(g1, x)
		mid, carry := bits.Add64(lo, hi0, 0)
		return hi + carry | (mid|-mid)>>63
	}
	vb, vbl, vbr := rop(cb<<h), rop(cbl<<h), rop((cb+2)<<h)
	if c&1 != 0 { // an open interval
		vbl++
		vbr--
	}

	// Exactly one multiple of ten in the interval is the answer.
	s := vb >> 2
	if t := s / 10 * 10; vbl <= 4*t != (4*t+40 <= vbr) {
		if 4*t < vbl {
			t += 10
		}
		return trimZeros(t, k)
	}
	// Neither multiple of ten is in, so whichever of s and s+1 is one is
	// out: the pick has no trailing zeros.
	if vbl > 4*s || 4*s+4 <= vbr && (vb > 4*s+2 || vb == 4*s+2 && s&1 != 0) {
		s++
	}
	return s, k
}

// trimZeros strips the trailing zeros of d > 0 into the exponent.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// This file adapts ryuFtoaShortest and its helpers from the Go standard
// library's strconv/ftoaryu.go, which carries this notice:
//
// Copyright 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// That license (the Go distribution's LICENSE file) reads:
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

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
	d, e := ryuShortest(mant, exp-1075)
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

// ryuShortest returns the shortest decimal d × 10^e, d without trailing
// zeros, that rounds to mant × 2^exp > 0, making strconv's
// ryuFtoaShortest decisions over pow10Tab.
func ryuShortest(mant uint64, exp int) (d uint64, e int) {
	// If input is an exact integer with fewer bits than the mantissa,
	// the previous and next integer are not admissible representations.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		d, e = ryuDigits(mant, mant, mant, true, false)
		return trimZeros(d, e)
	}
	ml, mc, mu, e2 := computeBounds(mant, exp)
	if e2 == 0 {
		d, e = ryuDigits(ml, mc, mu, true, false)
		return trimZeros(d, e)
	}
	// Find 10^q *larger* than 2^-e2
	q := mulByLog2Log10(-e2) + 1

	// We are going to multiply by 10^q using 128-bit arithmetic.
	// The exponent is the same for all 3 numbers, and so is the power;
	// 10^0 = 2^127 × 2^-127 is in the table like any other.
	pow := pow10Tab[q-minPow10]
	if q < 0 {
		// Inverse powers of ten must be rounded up.
		pow[0] += 1
	}
	e2 += mulByLog10Log2(q) - 127 + 119
	dl, dl0 := mult128bitPow10(ml, pow)
	dc, dc0 := mult128bitPow10(mc, pow)
	du, du0 := mult128bitPow10(mu, pow)
	// Is it an exact computation?
	if q > 55 {
		// Large positive powers of ten are not exact
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 {
		// Division by a power of ten may be exact.
		// (note that 5^25 is a 59-bit number so division by 5^25 is never exact).
		if divisibleByPower5(ml, -q) {
			dl0 = true
		}
		if divisibleByPower5(mc, -q) {
			dc0 = true
		}
		if divisibleByPower5(mu, -q) {
			du0 = true
		}
	}
	// Express the results (dl, dc, du)*2^e2 as integers.
	// Extra bits must be removed and rounding hints computed.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	// Now compute the floored, integral base 10 mantissas.
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// Is it allowed to use 'du' as a result?
	// It is always allowed when it is truncated, but also
	// if it is exact and the original binary mantissa is even
	// When disallowed, we can subtract 1.
	uok := !du0 || fracu > 0
	if du0 && fracu == 0 {
		uok = mant&1 == 0
	}
	if !uok {
		du--
	}
	// Is 'dc' the correctly rounded base 10 mantissa?
	// The correct rounding might be dc+1
	var cup bool
	if dc0 {
		// If we computed an exact product, the half integer
		// should round to next (even) integer if 'dc' is odd.
		cup = fracc > 1<<(extra-1) ||
			(fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		// otherwise, the result is a lower truncation of the ideal
		// result.
		cup = fracc>>(extra-1) == 1
	}
	// Is 'dl' an allowed representation?
	// Only if it is an exact value, and if the original binary mantissa
	// was even.
	lok := dl0 && fracl == 0 && (mant&1 == 0)
	if !lok {
		dl++
	}
	// We need to remember whether the trimmed digits of 'dc' are zero.
	c0 := dc0 && fracc == 0
	d, e = ryuDigits(dl, dc, du, c0, cup)
	return trimZeros(d, e-q)
}

// trimZeros strips the trailing zeros of d > 0 into the exponent.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// mulByLog2Log10 returns math.Floor(x * log(2)/log(10)) for an integer x in
// the range -1600 <= x && x <= +1600.
func mulByLog2Log10(x int) int {
	// log(2)/log(10) ≈ 0.30102999566 ≈ 78913 / 2^18
	return (x * 78913) >> 18
}

// mulByLog10Log2 returns math.Floor(x * log(10)/log(2)) for an integer x in
// the range -500 <= x && x <= +500.
func mulByLog10Log2(x int) int {
	// log(10)/log(2) ≈ 3.32192809489 ≈ 108853 / 2^15
	return (x * 108853) >> 15
}

// computeBounds returns a floating-point vector (l, c, u)×2^e2
// where the mantissas are 55-bit integers, describing the interval
// represented by the input float64.
func computeBounds(mant uint64, exp int) (lower, central, upper uint64, e2 int) {
	if mant != 1<<52 || exp == -1074 {
		// regular case (or denormals)
		return 2*mant - 1, 2 * mant, 2*mant + 1, exp - 1
	}
	// border of an exponent
	return 4*mant - 1, 4 * mant, 4*mant + 2, exp - 2
}

// ryuDigits returns (d, e) with d × 10^e the shortest decimal in
// [lower, upper], rounded as central would be; d may end in zeros. Where
// strconv emits digits, it returns their value.
func ryuDigits(lower, central, upper uint64, c0, cup bool) (uint64, int) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	switch {
	case uhi == 0:
		// only low digits (for denormals)
		d, t := ryuDigits32(llo, clo, ulo, c0, cup)
		return uint64(d), t
	case lhi < uhi:
		// truncate 9 digits at once.
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = (clo > 5e8) || (clo == 5e8 && cup)
		d, t := ryuDigits32(lhi, chi, uhi, c0, cup)
		return uint64(d), t + 9
	default:
		// the high part whole, then the low part
		d, t := ryuDigits32(llo, clo, ulo, c0, cup)
		return uint64(chi)*pow10u64[9-t] + uint64(d), t
	}
}

// ryuDigits32 returns (c, t) with c × 10^t the shortest decimal in
// [lower, upper] for numbers less than 1e9; (0, 0) when upper is 0.
func ryuDigits32(lower, central, upper uint32, c0, cup bool) (uint32, int) {
	if upper == 0 {
		return 0, 0
	}
	trimmed := 0
	// Remember last trimmed digit to check for round-up.
	// c0 will be used to remember zeroness of following digits.
	cNextDigit := 0
	for upper > 0 {
		// Repeatedly compute:
		// l = Ceil(lower / 10^k)
		// c = Round(central / 10^k)
		// u = Floor(upper / 10^k)
		// and stop when c goes out of the (l, u) interval.
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			// don't trim the last digit as it is forbidden to go below l
			// other, trim and exit now.
			break
		}
		// Check that we didn't cross the lower boundary.
		// The case where l < u but c == l-1 is essentially impossible,
		// but may happen if:
		//    lower   = ..11
		//    central = ..19
		//    upper   = ..31
		// and means that 'central' is very close but less than
		// an integer ending with many zeros, and usually
		// the "round-up" logic hides the problem.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		// Remember trimmed digits of c
		c0 = c0 && cNextDigit == 0
		cNextDigit = int(cdigit)
		lower, central, upper = l, c, u
	}
	// should we round up?
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	return central, trimmed
}

// mult128bitPow10 takes a floating-point input with a 55-bit
// mantissa and multiplies it with pow, the 128-bit element of pow10Tab
// for 10^q. The resulting mantissa is m*P >> 119, typically 63 or 64
// bits wide, and the caller adds mulByLog10Log2(q) - 8 to its exponent.
// The returned boolean is true if all trimmed bits were zero.
//
// That is:
//
//	m*2^e2 * round(10^q) = resM * 2^resE + ε
//	exact = ε == 0
func mult128bitPow10(m uint64, pow [2]uint64) (resM uint64, exact bool) {
	// long multiplication
	l1, l0 := bits.Mul64(m, pow[0])
	h1, h0 := bits.Mul64(m, pow[1])
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, mid<<9 == 0 && l0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

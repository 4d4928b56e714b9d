package matio

import (
	"encoding/binary"
	"math"
	"math/big"
	"strconv"
)

// decimal is a JSON number token read in one pass: its value is
// ±mant × 10^exp unless trunc is set.
type decimal struct {
	mant     uint64 // the first 19 significant digits
	exp      int
	nd       int  // significant digits, leading zeros of a fraction excluded
	neg      bool // a leading minus sign
	integral bool // neither fraction nor exponent
	trunc    bool // a nonzero digit past the 19th, or an exponent of maxExp or more
}

// maxExp bounds the exponent the scan accumulates; a larger one sets trunc
// and the token goes to strconv.
const maxExp = 1 << 20

// scanNumber reads the next token if it matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, gathering its digits as
// it checks them; ok is false, and s.p unmoved, otherwise.
func (s *scanner) scanNumber() (d decimal, ok bool) {
	// The digits gather in locals, not in d, so they stay in registers.
	var (
		mant       uint64
		exp, nd    int
		neg, trunc bool
	)
	b, p := s.b, s.p
	if p < len(b) && b[p] == '-' {
		neg = true
		p++
	}
	switch {
	case p < len(b) && b[p] == '0':
		p++
	case p < len(b) && b[p]-'1' < 9:
		for ; p < len(b) && b[p]-'0' <= 9; p++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[p]-'0')
			} else {
				exp++
				trunc = trunc || b[p] != '0'
			}
			nd++
		}
	default:
		return d, false
	}
	integral := true
	if p < len(b) && b[p] == '.' {
		integral = false
		q := p + 1
		for p = q; p < len(b) && b[p]-'0' <= 9; p++ {
			switch {
			case nd == 0 && b[p] == '0':
				exp--
				continue
			case nd < 19:
				mant = mant*10 + uint64(b[p]-'0')
				exp--
			default:
				trunc = trunc || b[p] != '0'
			}
			nd++
		}
		if p == q {
			return d, false
		}
	}
	if p < len(b) && b[p]|0x20 == 'e' {
		integral = false
		eneg := false
		if p++; p < len(b) && (b[p] == '+' || b[p] == '-') {
			eneg = b[p] == '-'
			p++
		}
		q, e := p, 0
		for ; p < len(b) && b[p]-'0' <= 9; p++ {
			if e < maxExp {
				e = e*10 + int(b[p]-'0')
			}
		}
		if p == q {
			return d, false
		}
		trunc = trunc || e >= maxExp
		if eneg {
			e = -e
		}
		exp += e
	}
	s.p = p
	return decimal{mant: mant, exp: exp, nd: nd, neg: neg, integral: integral, trunc: trunc}, true
}

// testHookSlow, when set, is called each time a number the scan accepted
// goes to strconv.
var testHookSlow func()

// int decodes an integer token; a fraction or exponent, which
// encoding/json rejects for an int field, is refused. Up to 18 digits are
// read by the scan when they fit in an int; longer tokens, and on a 32-bit
// platform any that do not fit, go to strconv.Atoi.
func (s *scanner) int() (int, bool) {
	start := s.p
	d, ok := s.scanNumber()
	if !ok || !d.integral {
		return 0, false
	}
	if d.nd <= 18 && d.mant <= math.MaxInt {
		v := int(d.mant)
		if d.neg {
			v = -v
		}
		return v, true
	}
	if testHookSlow != nil {
		testHookSlow()
	}
	v, err := strconv.Atoi(string(s.b[start:s.p]))
	return v, err == nil
}

// float decodes a number token with Eisel–Lemire, bit-identical to
// strconv.ParseFloat. Tokens it cannot settle (more than 19 significant
// digits, a halfway case, a subnormal, overflowing or out-of-table result)
// go to strconv.ParseFloat itself.
func (s *scanner) float() (float64, bool) {
	start := s.p
	d, ok := s.scanNumber()
	if !ok {
		return 0, false
	}
	if !d.trunc {
		if v, ok := eiselLemire64(d.mant, d.exp, d.neg); ok {
			return v, true
		}
	}
	if testHookSlow != nil {
		testHookSlow()
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.p]), 64)
	return v, err == nil
}

// The range of the power table: 10^-348 … 10^347.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds, for each q in [minPow10, maxPow10], the first 128 bits
// of 10^q, truncated and normalised so the top bit is set, as {low, high}
// words.
type pow10Table [maxPow10 - minPow10 + 1][2]uint64

// pow10Tab is built once, when the package is initialised.
var pow10Tab = buildPow10()

func buildPow10() (t pow10Table) {
	ten := big.NewInt(10)
	var num, den, pow big.Int
	var word [16]byte
	for i := range t {
		q := i + minPow10
		pow.Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		num.SetInt64(1)
		den.SetInt64(1)
		if q >= 0 {
			num.Set(&pow)
		} else {
			den.Set(&pow)
		}
		// num/den lies in (2^(k-1), 2^(k+1)) for k the difference of their
		// bit lengths; scale it to (2^127, 2^129), truncate, then drop the
		// 129th bit if there is one.
		if k := 128 - (num.BitLen() - den.BitLen()); k > 0 {
			num.Lsh(&num, uint(k))
		} else {
			den.Lsh(&den, uint(-k))
		}
		num.Quo(&num, &den)
		if num.BitLen() > 128 {
			num.Rsh(&num, 1)
		}
		num.FillBytes(word[:])
		t[i] = [2]uint64{binary.BigEndian.Uint64(word[8:]), binary.BigEndian.Uint64(word[:8])}
	}
	return t
}

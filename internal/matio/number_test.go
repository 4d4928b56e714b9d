package matio

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
)

// refNumber is the reference grammar check: the next token of b from p if
// it matches -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and whether it
// has neither fraction nor exponent; tok is nil otherwise.
func refNumber(b []byte, p int) (tok []byte, integral bool) {
	start := p
	if p < len(b) && b[p] == '-' {
		p++
	}
	switch {
	case p < len(b) && b[p] == '0':
		p++
	case p < len(b) && b[p]-'1' < 9:
		p = skipDigits(b, p+1)
	default:
		return nil, false
	}
	integral = true
	if p < len(b) && b[p] == '.' {
		integral = false
		if p = skipDigits(b, p+1); b[p-1] == '.' {
			return nil, false
		}
	}
	if p < len(b) && b[p]|0x20 == 'e' {
		integral = false
		if p++; p < len(b) && (b[p] == '+' || b[p] == '-') {
			p++
		}
		q := skipDigits(b, p)
		if q == p {
			return nil, false
		}
		p = q
	}
	return b[start:p], integral
}

func skipDigits(b []byte, p int) int {
	for p < len(b) && b[p]-'0' <= 9 {
		p++
	}
	return p
}

// FuzzParseNumber is the differential check of the one-pass number scan:
// for any bytes, scanner.float must match refNumber + strconv.ParseFloat,
// and scanner.int refNumber + strconv.Atoi, on acceptance, on the bytes
// consumed, and on the value's bits (so -0 and subnormals count).
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0.30000000000000004", "2.2250738585072014e-308", "1.2345678901234567e-5",
		"123456789012345678", "1234567890123456789", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		"8.988465674311579e307", "0.1000000000000000055511151231257827021181583404541015625",
		"12345678901234567890", "123456789012345678901234567890e-10", "1000000000000000000000",
		"9007199254740993", "2.2250738585072011e-308", "4.9e-324", "2.4703282292062328e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "1e-400", "-1e400",
		"-0", "-0.0", "0e999", "0e-99999999999999999999", "1e99999999999999999999",
		"0." + strings.Repeat("0", 30) + "1", "1e-348", "1e347", "1e-349", "1e348",
		"01", "1.", ".5", "+1", "1e", "1e+", "-", "", "0x10", "1.5e3,", "-12 ]", "7.}", "1E-2",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, integral := refNumber(data, 0)

		s := scanner{b: data}
		got, ok := s.float()
		var want float64
		wantOK, wantP := tok != nil, len(tok)
		if wantOK {
			var err error
			want, err = strconv.ParseFloat(string(tok), 64)
			wantOK = err == nil
		}
		if ok != wantOK || s.p != wantP || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float %q: %v (%#x), ok %t, consumed %d; want %v (%#x), ok %t, consumed %d",
				data, got, math.Float64bits(got), ok, s.p, want, math.Float64bits(want), wantOK, wantP)
		}

		s = scanner{b: data}
		gotInt, ok := s.int()
		wantInt, wantOK := 0, tok != nil && integral
		if wantOK {
			var err error
			wantInt, err = strconv.Atoi(string(tok))
			wantOK = err == nil
		}
		if ok != wantOK || s.p != wantP || ok && gotInt != wantInt {
			t.Fatalf("int %q: %d, ok %t, consumed %d; want %d, ok %t, consumed %d",
				data, gotInt, ok, s.p, wantInt, wantOK, wantP)
		}
	})
}

// TestFloatMatchesStrconv feeds the float scan the decimal forms of random
// float64 bit patterns — shortest, and rounded to 1 through 21 significant
// digits, so halfway cases, subnormals and overflows all occur — and tokens
// whose digit runs cancel an exponent too long for the scan to hold, and
// wants strconv.ParseFloat's bits for each.
func TestFloatMatchesStrconv(t *testing.T) {
	check := func(tok []byte) {
		t.Helper()
		want, werr := strconv.ParseFloat(string(tok), 64)
		s := scanner{b: tok}
		got, ok := s.float()
		if ok != (werr == nil) || s.p != len(tok) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%.40s…: %v, ok %t, consumed %d; strconv gives %v, %v", tok, got, ok, s.p, want, werr)
		}
	}
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for prec := -1; prec <= 20; prec++ {
			buf = strconv.AppendFloat(buf[:0], v, 'e', prec, 64)
			check(buf)
		}
	}
	zeros := strings.Repeat("0", maxExp)
	for _, tok := range []string{
		"0." + zeros + "1e" + strconv.Itoa(maxExp),        // 1e-1
		"0." + zeros + "1e" + strconv.Itoa(10*(maxExp+1)), // overflows
		"1" + zeros + "e-" + strconv.Itoa(10*(maxExp+1)),  // underflows to 0
		"-0." + zeros + "1e-" + strconv.Itoa(10*(maxExp+1)),
	} {
		check([]byte(tok))
	}
}

// TestPow10Table pins the generated power table to strconv's at both ends
// and around 1.
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		q    int
		want [2]uint64
	}{
		{-348, [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288}},
		{-1, [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{0, [2]uint64{0, 0x8000000000000000}},
		{347, [2]uint64{0x4B7195F2D2D1A9FB, 0xD13EB46469447567}},
	} {
		if got := pow10Tab[c.q-minPow10]; got != c.want {
			t.Errorf("1e%d: {%#X, %#X}, want {%#X, %#X}", c.q, got[0], got[1], c.want[0], c.want[1])
		}
	}
}

// TestNumbersTakeFastPath: every number the transport carries — the
// Table-1 request bodies of the orders the HTTP benchmark draws, and the
// solutions AppendSolution writes for them — converts without strconv.
// The differential fuzz target cannot see this: a fast path that always
// declined would pass it.
func TestNumbersTakeFastPath(t *testing.T) {
	slow := 0
	testHookSlow = func() { slow++ }
	defer func() { testHookSlow = nil }()

	for _, n := range []int{16, 40, 60} {
		p := problems.Table1(n, 1)
		body := compactBody(t, p)
		if _, ok := (&decodeState{buf: body}).parse(); !ok || slow != 0 {
			t.Fatalf("order %d: request decoded %t with %d numbers through strconv", n, ok, slow)
		}
		sol, err := core.SolveDiagonal(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendSolution(nil, SolutionFromCore(sol))
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, b := range [][]byte{body, out} {
			count += eachNumber(t, b)
		}
		if slow != 0 {
			t.Fatalf("order %d: %d of %d numbers went through strconv", n, slow, count)
		}
		if count < 2*n*n {
			t.Fatalf("order %d: only %d numbers found", n, count)
		}
	}
}

// eachNumber converts every number token outside a string in the JSON
// text b with scanner.float, checks it against strconv.ParseFloat, and
// returns how many it found.
func eachNumber(t *testing.T, b []byte) int {
	t.Helper()
	count := 0
	s := scanner{b: b}
	for inString := false; s.p < len(b); {
		switch c := b[s.p]; {
		case c == '"':
			inString = !inString
		case !inString && (c == '-' || c-'0' <= 9):
			start := s.p
			v, ok := s.float()
			want, err := strconv.ParseFloat(string(b[start:s.p]), 64)
			if !ok || err != nil || math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%q: %v, ok %t; strconv gives %v, %v", b[start:s.p], v, ok, want, err)
			}
			count++
			continue
		}
		s.p++
	}
	return count
}

package matio

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refAppendFloat is the reference float formatting: encoding/json's own
// rule for a finite v, strconv.AppendFloat's shortest digits in 'f' layout
// for ±0 and 1e-6 ≤ |v| < 1e21 and in 'e' layout otherwise, with a
// one-digit negative exponent unpadded (e-7, not e-07).
func refAppendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// checkAppendFloat reports whether appendFloat writes refAppendFloat's
// bytes for v after a prefix, leaving the prefix alone, and refuses
// exactly the non-finite values without extending b.
func checkAppendFloat(t *testing.T, buf []byte, v float64) []byte {
	t.Helper()
	prefix := []byte{'[', '1', ','}
	got, ok := appendFloat(append(buf[:0], prefix...), v)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if ok || !bytes.Equal(got, prefix) {
			t.Fatalf("%v (%#x): got %q, ok %t; want the prefix alone, refused", v, math.Float64bits(v), got, ok)
		}
		return got
	}
	want := refAppendFloat(nil, v)
	if !ok || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%v (%#x): got %q, ok %t; want %q", v, math.Float64bits(v), got, ok, want)
	}
	return got
}

// TestAppendFloatMatchesStrconv: appendFloat writes encoding/json's bytes
// for random bit patterns and uniform values, every power of two and its
// neighbours, the subnormals with the 2^16 smallest and the 2^16 − 1
// largest mantissas, both sides of the 'f'/'e' cut-offs, the integers
// around 2^53, the extremes, and decimals of 1–17 digits at every exponent
// a float64 reaches.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var buf []byte
	check := func(v float64) {
		buf = checkAppendFloat(t, buf, v)
		buf = checkAppendFloat(t, buf, -v)
	}
	for _, v := range []float64{0, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), 1, 0.1, 123456789} {
		check(v)
	}

	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 1_500_000; i++ {
		buf = checkAppendFloat(t, buf, math.Float64frombits(rng.Uint64()))
		// Uniform on [0, 1), scaled to a magnitude either layout may take.
		check(rng.Float64() * math.Pow(10, float64(rng.Intn(40)-12)))
	}

	for k := -1074; k <= 1023; k++ {
		p := math.Ldexp(1, k)
		check(math.Nextafter(p, 0))
		check(p)
		check(math.Nextafter(p, math.Inf(1)))
	}

	// The bottom subnormals have one to five digits, where a rule that
	// keeps two digits at least would not be shortest.
	for m := uint64(1); m < 1<<16; m++ {
		check(math.Float64frombits(m))
		check(math.Float64frombits(1<<52 - m))
	}

	for _, c := range []float64{1e-6, 1e21} {
		lo, hi := c, c
		for i := 0; i < 1000; i++ {
			check(lo)
			check(hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
	}

	for _, c := range []float64{1 << 53, 1 << 54, 1 << 52} {
		for d := -1000.0; d <= 1000; d++ {
			check(c + d)
		}
	}

	// Decimals of every length at every exponent, parsed to the nearest
	// float64: the inputs whose shortest form is exactly these digits,
	// and (past 15–17 digits) their near neighbours.
	for e := -330; e <= 310; e++ {
		for nd := 1; nd <= 17; nd++ {
			for r := 0; r < 3; r++ {
				m := uint64(1+rng.Intn(9))*pow10u64[nd-1] + uint64(rng.Int63n(int64(pow10u64[nd-1])))
				s := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(e)
				v, err := strconv.ParseFloat(s, 64)
				if err != nil && !math.IsInf(v, 0) {
					t.Fatalf("%s: %v", s, err)
				}
				check(v)
			}
		}
	}
}

// FuzzAppendFloat is the differential check of the float formatter: for
// any float64 bits, appendFloat must write refAppendFloat's bytes, and
// refuse NaN and ±Inf without writing.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e21, 1e-7, 1e20, 9.999999999999999e-7,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1 << 53, 1<<53 + 2, 123456789.123,
		0.30000000000000004, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkAppendFloat(t, nil, math.Float64frombits(u))
	})
}

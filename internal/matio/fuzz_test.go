package matio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"sea/internal/core"
	"sea/internal/problems"
)

// problemSeeds is the shared seed corpus of the problem-reader fuzz targets.
func problemSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	// Real encodings from each example family the repo ships,
	// covering the default-γ path (Gamma omitted) and the explicit one.
	for _, p := range []*core.DiagonalProblem{
		problems.Table1(8, 1),
		problems.Table1(14, 3),
		problems.RandomSAM(6, 2),
		problems.IOTable(problems.IOSpec{Name: "fuzz", Sectors: 5, Density: 0.8, Variant: problems.IOGrowth10, Seed: 4}),
		problems.MigrationProblem(problems.StandardMigrationSpecs()[0]),
		problems.SparseTable1(9, 3, 5),
		problems.SparseSAM(7, 3, 6),
	} {
		var buf bytes.Buffer
		if err := WriteProblemJSON(&buf, p); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	// Hand-written seeds: the non-fixed kinds, defaulted fields, and the
	// malformed shapes the reader's guards exist for.
	for _, s := range []string{
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6]}`,
		`{"kind":"balanced","m":2,"n":2,"x0":[1,2,3,4],"alpha":[1,1]}`,
		`{"kind":"elastic","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"alpha":[1,1],"beta":[1,1]}`,
		`{"kind":"interval","m":2,"n":2,"x0":[1,2,3,4],"alpha":[1,1],"slo":[1,1],"shi":[9,9],"dlo":[1,1],"dhi":[9,9]}`,
		`{"m":1,"n":1,"x0":[1],"s0":[1],"d0":[1],"upper":[2],"lower":[0.5]}`,
		`{}`,
		`{"kind":"fixed"}`,
		`{"kind":"nope","m":1,"n":1,"x0":[1]}`,
		`{"m":-1,"n":2,"x0":[]}`,
		`{"m":4611686018427387904,"n":4611686018427387904,"x0":[]}`,
		`{"m":2,"n":2,"x0":[1,2,3]}`,
		`{"m":1,"n":1,"x0":[1e999]}`,
		`{"m":1,"n":1,"x0":[1],"gamma":[0]}`,
		`{"m":1,"n":1,"x0":[1],"gamma":[-1]}`,
		`not json at all`,
		`[1,2,3]`,
		`"a string"`,
		``,
		// Sparse triplet encodings: a valid minimal CSR problem, then the
		// malformed shapes the sparse guards reject — triplet/value length
		// disagreement, totals not sized to the claimed dimensions (the
		// allocation bound), non-canonical order, and stray triplets on a
		// dense encoding.
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[0,0,1],"cols":[0,1,1],"x0":[1,2,3],"s0":[3,3],"d0":[1,5]}`,
		`{"kind":"balanced","storage":"csr","m":2,"n":2,"rows":[0,1],"cols":[1,0],"x0":[2,2],"s0":[2,2],"alpha":[1,1]}`,
		`{"kind":"interval","storage":"csr","m":2,"n":2,"rows":[0,1],"cols":[0,1],"x0":[1,1],"slo":[0,0],"shi":[9,9],"dlo":[0,0],"dhi":[9,9]}`,
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[0,1],"cols":[0,1],"x0":[1],"s0":[1,1],"d0":[1,1]}`,
		`{"kind":"fixed","storage":"csr","m":4611686018427387904,"n":2,"rows":[0],"cols":[0],"x0":[1],"s0":[1],"d0":[1,0]}`,
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[1,0],"cols":[0,0],"x0":[1,2],"s0":[1,2],"d0":[1,2]}`,
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[0,0],"cols":[1,1],"x0":[1,2],"s0":[1,2],"d0":[1,2]}`,
		`{"kind":"fixed","storage":"coo","m":1,"n":1,"x0":[1],"s0":[1],"d0":[1]}`,
		`{"kind":"fixed","m":1,"n":1,"rows":[0],"cols":[0],"x0":[1],"s0":[1],"d0":[1]}`,
		// Extreme dynamic range: the inputs the preconditioning layer exists
		// for. Cells and totals spanning ~30 orders of magnitude, subnormal
		// priors, near-overflow magnitudes, and mixed-scale weight vectors —
		// all finite, so the reader must accept them and round-trip exactly.
		`{"kind":"fixed","m":2,"n":2,"x0":[1e-30,1e30,1e30,1e-30],"s0":[1e30,1e30],"d0":[1e30,1e30]}`,
		`{"kind":"fixed","m":2,"n":2,"x0":[5e-324,1,1,1.7e308],"s0":[1,1.7e308],"d0":[1,1.7e308]}`,
		`{"kind":"elastic","m":2,"n":2,"x0":[1e-200,1e200,1,1],"s0":[1e200,2],"d0":[1e200,2],"alpha":[1e-12,1e12],"beta":[1e12,1e-12]}`,
		`{"kind":"balanced","m":2,"n":2,"x0":[1e-15,1e15,1e15,1e-15],"alpha":[1e-9,1e9]}`,
		`{"m":2,"n":2,"x0":[1e-100,1e100,1e100,1e-100],"gamma":[1e-150,1e150,1e150,1e-150],"s0":[1e100,1e100],"d0":[1e100,1e100]}`,
		`{"kind":"fixed","storage":"csr","m":3,"n":3,"rows":[0,1,2],"cols":[0,1,2],"x0":[1e-290,1,1e290],"s0":[1e-290,1,1e290],"d0":[1e-290,1,1e290]}`,
		// The objective attribute: the canonical spellings, the "kl" alias,
		// and an unknown family. The parser accepts all of them — the field
		// is solver routing, validated by ObjectiveKind at the request layer
		// — and the core conversion drops it, so round-trips stay exact.
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"objective":"entropy"}`,
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"objective":"quadratic"}`,
		`{"kind":"elastic","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"alpha":[1,1],"beta":[1,1],"objective":"kl"}`,
		`{"kind":"fixed","m":1,"n":1,"x0":[1],"s0":[1],"d0":[1],"objective":"huber"}`,
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[0,1],"cols":[0,1],"x0":[1,2],"s0":[1,2],"d0":[1,2],"objective":"entropy"}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzReadProblem hardens the JSON problem reader — the parser every
// network-facing surface (the HTTP transport's request path, seasolve's
// file input) funnels untrusted bytes through. Properties enforced:
//
//  1. ReadProblemJSON never panics, whatever the bytes.
//  2. A problem that reads successfully re-encodes, and the encoding is a
//     fixed point: read → write → read → write yields identical bytes
//     (no drift from defaulting, no loss from omitted fields).
//  3. Re-reading our own encoding never fails: everything WriteProblemJSON
//     emits is accepted back.
func FuzzReadProblem(f *testing.F) {
	for _, seed := range problemSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProblemJSON(bytes.NewReader(data))
		if err != nil {
			// Rejected input: the only contract is no panic.
			return
		}
		// Accepted problems carry only finite numbers — JSON cannot encode
		// NaN/Inf, and an accepted-then-unencodable problem would poison
		// the HTTP transport's response path.
		for _, vs := range [][]float64{p.X0, p.Gamma, p.S0, p.D0, p.Alpha, p.Beta} {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted problem contains non-finite value %v", v)
				}
			}
		}

		var w1 bytes.Buffer
		if err := WriteProblemJSON(&w1, p); err != nil {
			t.Fatalf("write of accepted problem failed: %v", err)
		}
		p2, err := ReadProblemJSON(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own encoding failed: %v\nencoding:\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := WriteProblemJSON(&w2, p2); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzDecodeProblem is the differential check of DecodeProblem's
// schema-specialised scanner against encoding/json, which defines the
// format. For every input both must agree on success versus failure and the
// error text, on nil versus empty for every slice, and on the bits of every
// float (so -0 and subnormals count). The input is also fed one byte per
// Read, and cut in half with a read error after the cut, so the replay of a
// failed read through the fallback is exercised too.
func FuzzDecodeProblem(f *testing.F) {
	for _, seed := range problemSeeds(f) {
		f.Add(seed)
	}
	for _, s := range []string{
		`X0`,
		`{"m":1,"m":2}`,
		`{"x0":[1],"x0":[2]}`,
		`{"kind":"fixed","kind":"elastic"}`,
		`{"m":1,"n":1,"x0":[1],"extra":{"a":[1,"b",null]}}`,
		`{"M":1,"N":1,"X0":[1]}`,
		`{"kin\u0064":"fixed"}`,
		`{"kind":"fix\u0065d"}`,
		`{"kind":"fixed\n"}`,
		`{"kind":"fixé"}`,
		"{\"kind\":\"\xff\"}",
		`{"x0":null,"gamma":null,"m":null,"kind":null}`,
		`{"x0":[null]}`,
		`{"x0":[1e400]}`,
		`{"x0":[-1e400]}`,
		`{"x0":[1e-400,-0,0,-0.0,5e-324,2.2250738585072014e-308]}`,
		`{"m":-0,"n":0}`,
		`{"m":1.0}`,
		`{"m":1e2}`,
		`{"m":99999999999999999999}`,
		`{"rows":[0,1.5]}`,
		`{"x0":[01]}`,
		`{"x0":[1.]}`,
		`{"x0":[.5]}`,
		`{"x0":[+1]}`,
		`{"x0":[1e]}`,
		`{"x0":[0x10]}`,
		`{"x0":[Infinity,NaN]}`,
		`{"x0":["1"]}`,
		`{"x0":[1,]}`,
		`{"x0":[1 2]}`,
		`{"m":1,}`,
		`{"m" : 1 , "n":	2 ,"x0" :[ 1 ,2 ] }`,
		`{"x0":[],"gamma":[],"rows":[]}`,
		"\xef\xbb\xbf{\"m\":1}",
		` {"m":1}`,
		`{"m":1}trailing junk`,
		`{"m":1} {"m":2}`,
		`{"m":1`,
		`{"x0":[1,2`,
		`{"kind":"fix`,
		`{`,
		`null`,
		`{"m":true}`,
		`{"objective":"<&>"}`,
	} {
		f.Add([]byte(s))
	}

	errBroken := errors.New("broken pipe")
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode(t, "whole", data, func() io.Reader { return bytes.NewReader(data) })
		diffDecode(t, "one byte per read", data, func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) })
		half := data[:len(data)/2]
		diffDecode(t, "read error after half", half, func() io.Reader {
			return io.MultiReader(bytes.NewReader(half), iotest.ErrReader(errBroken))
		})
	})
}

// diffDecode decodes the stream open returns with DecodeProblem and with a
// plain json.Decoder, and fails t on any difference.
func diffDecode(t *testing.T, name string, data []byte, open func() io.Reader) {
	t.Helper()
	var want Problem
	werr := json.NewDecoder(open()).Decode(&want)
	got, err := DecodeProblem(open())
	switch {
	case werr != nil && err == nil:
		t.Fatalf("%s: %q: accepted, encoding/json says %v", name, data, werr)
	case werr == nil && err != nil:
		t.Fatalf("%s: %q: %v, encoding/json accepts", name, data, err)
	case werr != nil:
		if err.Error() != "matio: "+werr.Error() {
			t.Fatalf("%s: %q: error %q, encoding/json says %q", name, data, err, werr)
		}
		if cause := errors.Unwrap(err); fmt.Sprintf("%T", cause) != fmt.Sprintf("%T", werr) {
			t.Fatalf("%s: %q: wraps a %T, encoding/json returns a %T", name, data, cause, werr)
		}
		return
	}
	if d := problemDiff(got, &want); d != "" {
		t.Fatalf("%s: %q: %s", name, data, d)
	}
}

// problemDiff describes the first difference between a and b, comparing
// floats by bits and slices by nil-ness too; "" when they are identical.
func problemDiff(a, b *Problem) string {
	if a.Kind != b.Kind || a.Objective != b.Objective || a.Storage != b.Storage || a.M != b.M || a.N != b.N {
		return fmt.Sprintf("scalars %q/%q/%q/%d/%d, want %q/%q/%q/%d/%d",
			a.Kind, a.Objective, a.Storage, a.M, a.N, b.Kind, b.Objective, b.Storage, b.M, b.N)
	}
	for k, pair := range [][2][]int{{a.Rows, b.Rows}, {a.Cols, b.Cols}} {
		x, y := pair[0], pair[1]
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Sprintf("int array %d: %v (nil %t), want %v (nil %t)", k, x, x == nil, y, y == nil)
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("int array %d[%d]: %d, want %d", k, i, x[i], y[i])
			}
		}
	}
	floats := func(p *Problem) [][]float64 {
		return [][]float64{p.X0, p.Gamma, p.S0, p.D0, p.Alpha, p.Beta, p.Upper, p.Lower, p.SLo, p.SHi, p.DLo, p.DHi}
	}
	fb := floats(b)
	for k, x := range floats(a) {
		y := fb[k]
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Sprintf("float array %d: %v (nil %t), want %v (nil %t)", k, x, x == nil, y, y == nil)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("float array %d[%d]: %v, want %v", k, i, x[i], y[i])
			}
		}
	}
	return ""
}

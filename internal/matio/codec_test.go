package matio

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
)

// compactBody is a problem as HTTP clients send it: json.Marshal of the
// container, no indentation.
func compactBody(tb testing.TB, p *core.DiagonalProblem) []byte {
	tb.Helper()
	body, err := json.Marshal(FromCore(p))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeProblemFastPath pins which inputs the scanner decodes itself:
// what this package and JSON clients write must not fall back (the
// differential fuzz target cannot see a fallback, only a wrong answer), and
// input outside the plain subset must.
func TestDecodeProblemFastPath(t *testing.T) {
	var indented bytes.Buffer
	if err := WriteProblemJSON(&indented, problems.SparseSAM(7, 3, 6)); err != nil {
		t.Fatal(err)
	}
	plain := [][]byte{
		compactBody(t, problems.Table1(40, 1)),
		indented.Bytes(),
		[]byte(`{}`),
		[]byte(`{"kind":"interval","objective":"kl","m":1,"n":1,"x0":[-0],"slo":[0],"shi":[1e300],"dlo":[],"dhi":[5e-324]}`),
		[]byte("{ \"m\" :\t1 ,\r\n\"x0\" : [ 1 , 2 ] } trailing"),
	}
	for _, body := range plain {
		if _, ok := (&decodeState{buf: body}).parse(); !ok {
			t.Errorf("%.60q fell back", body)
		}
	}
	for _, body := range []string{
		` {}`, `{"m":1,"m":1}`, `{"M":1}`, `{"extra":1}`, `{"x0":null}`,
		`{"kind":"fix\u0065d"}`, `{"kind":"é"}`, `{"x0":[1e400]}`, `{"m":1.0}`,
		`{"x0":[01]}`, `{"m":1`, `{"m":1,}`,
	} {
		if _, ok := (&decodeState{buf: []byte(body)}).parse(); ok {
			t.Errorf("%q decoded without the fallback", body)
		}
	}
}

// TestDecodeProblemNoAliasing: a decoded problem shares no memory with the
// pooled body buffer, so the next decode cannot change it.
func TestDecodeProblemNoAliasing(t *testing.T) {
	first := []byte(`{"kind":"fixed","storage":"csr","m":1,"n":1,"rows":[0],"cols":[0],"x0":[1],"s0":[1],"d0":[1]}`)
	other := bytes.Repeat([]byte{'9'}, len(first))
	p, err := DecodeProblem(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var want Problem
	if err := json.Unmarshal(first, &want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, _ = DecodeProblem(bytes.NewReader(other))
	}
	if d := problemDiff(p, &want); d != "" {
		t.Fatal(d)
	}
}

// TestAppendSolutionMatchesEncodingJSON: AppendSolution is byte-identical
// to json.Encoder.Encode on random bit-pattern floats, both sides of the
// 'f'/'e' cut-offs, -0, nil versus empty slices, the omitempty fields, and
// strings that need escaping.
func TestAppendSolutionMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 0, 2000)
	for len(random) < cap(random) {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			random = append(random, v)
		}
	}
	var edges []float64
	for _, c := range []float64{1e-6, 1e21, 1e-7, 1e-10, 1e20, 5e-324, 1} {
		for _, v := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1))} {
			edges = append(edges, v, -v)
		}
	}
	edges = append(edges, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 123456789, 0.1, 1.5e-300)

	cases := []Solution{
		{X: random, S: edges, D: []float64{}, Lambda: edges, Mu: random[:3], Iterations: 17, Converged: true,
			Status: "converged", Residual: 1e-9, Objective: -0.5, ObjectiveKind: "quadratic", PrecondNs: 12345, PrecondSweeps: 219},
		{Status: "max-iterations", ObjectiveKind: "entropy", Residual: math.Copysign(0, -1)},
		{X: []float64{}, S: nil, D: []float64{1e21}, Lambda: []float64{}, Mu: nil, PrecondNs: -1},
		{Status: "converged", PrecondSweeps: 1},
		{Status: "a<b>&c\"\\ é\u2028\x01\n", ObjectiveKind: "\xff"},
	}
	for i := range cases {
		s := &cases[i]
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Fatal(err)
		}
		got, err := AppendSolution([]byte("prefix"), s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want.Bytes())
		}
	}

	for _, bad := range []Solution{
		{X: []float64{1, math.NaN()}},
		{Mu: []float64{math.Inf(-1)}},
		{Residual: math.Inf(1)},
		{Objective: math.NaN()},
	} {
		got, err := AppendSolution([]byte("prefix"), &bad)
		if err == nil || string(got) != "prefix" {
			t.Errorf("%+v: got %q, %v; want the prefix alone and an error", bad, got, err)
		}
		if err := json.NewEncoder(&bytes.Buffer{}).Encode(&bad); err == nil {
			t.Errorf("%+v: encoding/json encodes it", bad)
		}
	}
}

// TestCodecConcurrent runs decodes and encodes from several goroutines at
// once, as the HTTP transport does, so that -race (make race) sees the
// pooled buffers shared; each result must still match encoding/json.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		body := compactBody(t, problems.Table1(6+g, uint64(g)))
		var want Problem
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		sol := &Solution{X: want.X0, S: want.S0, D: want.D0, Residual: float64(g), Status: "converged"}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(sol); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for i := 0; i < 50; i++ {
				p, err := DecodeProblem(bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if d := problemDiff(p, &want); d != "" {
					t.Error(d)
					return
				}
				if out, err = AppendSolution(out[:0], sol); err != nil || !bytes.Equal(out, enc.Bytes()) {
					t.Errorf("encoding differs from encoding/json (%v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDecodeProblem times DecodeProblem on Table-1 request bodies of
// the orders the HTTP benchmark draws, with plain encoding/json (the
// fallback) as the reference.
func BenchmarkDecodeProblem(b *testing.B) {
	decoders := []struct {
		name   string
		decode func([]byte) error
	}{
		{"scanner", func(body []byte) error {
			_, err := DecodeProblem(bytes.NewReader(body))
			return err
		}},
		{"encoding-json", func(body []byte) error {
			var j Problem
			return json.NewDecoder(bytes.NewReader(body)).Decode(&j)
		}},
	}
	for _, n := range []int{16, 40, 60} {
		body := compactBody(b, problems.Table1(n, 1))
		for _, d := range decoders {
			b.Run(fmt.Sprintf("order%d/%s", n, d.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := d.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAppendSolution times AppendSolution on the answers to Table-1
// problems of the orders the HTTP benchmark draws, with json.Encoder (the
// bytes it must match) as the reference.
func BenchmarkAppendSolution(b *testing.B) {
	for _, n := range []int{16, 40, 60} {
		sol, err := core.SolveDiagonal(context.Background(), problems.Table1(n, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
		s := SolutionFromCore(sol)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("order%d/append", n), func(b *testing.B) {
			b.SetBytes(int64(want.Len()))
			b.ReportAllocs()
			var out []byte
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = AppendSolution(out[:0], s); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(out, want.Bytes()) {
				b.Fatal("AppendSolution differs from encoding/json")
			}
		})
		b.Run(fmt.Sprintf("order%d/encoding-json", n), func(b *testing.B) {
			b.SetBytes(int64(want.Len()))
			b.ReportAllocs()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.Encode(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package matio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// DecodeProblem decodes the raw JSON container without converting it to a
// core problem, for callers that need request attributes (the objective
// family) alongside the problem data. Call ToCore to validate.
//
// It reads r to EOF and decodes the first JSON value with exactly the
// semantics of encoding/json's Decoder.Decode, including its error text;
// bytes after that value are ignored. Bodies in the plain subset the
// transport's clients send — the Problem keys once each, unescaped ASCII
// strings, numbers strconv accepts — take a scanner specialised to the
// schema; anything else (and any read error) is handed to encoding/json,
// which is therefore the definition of the format.
func DecodeProblem(r io.Reader) (*Problem, error) {
	st := decodePool.Get().(*decodeState)
	defer st.release()
	var rerr error
	st.buf, rerr = appendAll(st.buf[:0], r)
	if rerr == nil {
		if j, ok := st.parse(); ok {
			return j, nil
		}
	}
	var src io.Reader = bytes.NewReader(st.buf)
	if rerr != nil {
		// Replay what was read, then the failure, so the decoder sees the
		// stream it would have read itself (an *http.MaxBytesError stays
		// matchable, and a value complete before the failure still decodes).
		src = io.MultiReader(src, errReader{rerr})
	}
	var j Problem
	if err := json.NewDecoder(src).Decode(&j); err != nil {
		return nil, fmt.Errorf("matio: %w", err)
	}
	return &j, nil
}

// maxPooled bounds the bytes each buffer of a decodeState may hold for
// reuse, so one outsized request does not pin its memory in the pool.
const maxPooled = 4 << 20

// decodeState is the pooled scratch of one decode: the body and the number
// arrays values are parsed into before being copied out at their exact
// length. Nothing a decode returns aliases it.
type decodeState struct {
	buf    []byte
	floats []float64
	ints   []int
	s      scanner // here rather than on parse's stack, which the elem calls would make it escape
}

var decodePool = sync.Pool{New: func() any { return new(decodeState) }}

func (st *decodeState) release() {
	if cap(st.buf) <= maxPooled && 8*cap(st.floats) <= maxPooled && 8*cap(st.ints) <= maxPooled {
		decodePool.Put(st)
	}
}

// appendAll reads r to EOF, appending to b.
func appendAll(b []byte, r io.Reader) ([]byte, error) {
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parse decodes st.buf if it is a plain Problem object; ok is false when
// the input lies outside the subset (an unknown, repeated or case-folded
// key, null, an escaped or non-ASCII string, a number that is outside the
// JSON grammar or fails strconv, any syntax error), and the caller falls
// back to encoding/json.
func (st *decodeState) parse() (*Problem, bool) {
	s := &st.s
	*s = scanner{b: st.buf}
	if !s.consume('{') {
		return nil, false
	}
	j := new(Problem)
	s.skipSpace()
	if s.consume('}') {
		return j, true
	}
	var seen uint32
	for {
		key, ok := s.plainString()
		if !ok {
			return nil, false
		}
		s.skipSpace()
		if !s.consume(':') {
			return nil, false
		}
		s.skipSpace()
		var field uint
		switch string(key) {
		case "kind":
			field = 0
			j.Kind, ok = s.str()
		case "objective":
			field = 1
			j.Objective, ok = s.str()
		case "m":
			field = 2
			j.M, ok = s.int()
		case "n":
			field = 3
			j.N, ok = s.int()
		case "storage":
			field = 4
			j.Storage, ok = s.str()
		case "rows":
			field, ok = 5, array(s, &st.ints, &j.Rows, (*scanner).int)
		case "cols":
			field, ok = 6, array(s, &st.ints, &j.Cols, (*scanner).int)
		case "x0":
			field, ok = 7, array(s, &st.floats, &j.X0, (*scanner).float)
		case "gamma":
			field, ok = 8, array(s, &st.floats, &j.Gamma, (*scanner).float)
		case "s0":
			field, ok = 9, array(s, &st.floats, &j.S0, (*scanner).float)
		case "d0":
			field, ok = 10, array(s, &st.floats, &j.D0, (*scanner).float)
		case "alpha":
			field, ok = 11, array(s, &st.floats, &j.Alpha, (*scanner).float)
		case "beta":
			field, ok = 12, array(s, &st.floats, &j.Beta, (*scanner).float)
		case "upper":
			field, ok = 13, array(s, &st.floats, &j.Upper, (*scanner).float)
		case "lower":
			field, ok = 14, array(s, &st.floats, &j.Lower, (*scanner).float)
		case "slo":
			field, ok = 15, array(s, &st.floats, &j.SLo, (*scanner).float)
		case "shi":
			field, ok = 16, array(s, &st.floats, &j.SHi, (*scanner).float)
		case "dlo":
			field, ok = 17, array(s, &st.floats, &j.DLo, (*scanner).float)
		case "dhi":
			field, ok = 18, array(s, &st.floats, &j.DHi, (*scanner).float)
		default:
			return nil, false
		}
		if !ok || seen&(1<<field) != 0 {
			return nil, false
		}
		seen |= 1 << field
		s.skipSpace()
		if s.consume('}') {
			return j, true
		}
		if !s.consume(',') {
			return nil, false
		}
		s.skipSpace()
	}
}

// array decodes a JSON array of elem values into a new slice of exactly
// its length, staged in the pooled scratch; [] yields an empty, non-nil
// slice, as encoding/json does.
func array[T any](s *scanner, scratch, dst *[]T, elem func(*scanner) (T, bool)) bool {
	if !s.consume('[') {
		return false
	}
	vs := (*scratch)[:0]
	for s.skipSpace(); !s.consume(']'); {
		if len(vs) > 0 {
			if !s.consume(',') {
				return false
			}
			s.skipSpace()
		}
		v, ok := elem(s)
		if !ok {
			return false
		}
		vs = append(vs, v)
		s.skipSpace()
	}
	*scratch = vs
	*dst = append(make([]T, 0, len(vs)), vs...)
	return true
}

// scanner walks a JSON body one token at a time; a method that meets input
// it does not accept reports false, and the whole decode falls back.
type scanner struct {
	b []byte
	p int
}

func (s *scanner) consume(c byte) bool {
	if s.p < len(s.b) && s.b[s.p] == c {
		s.p++
		return true
	}
	return false
}

func (s *scanner) skipSpace() {
	for s.p < len(s.b) {
		switch s.b[s.p] {
		case ' ', '\t', '\n', '\r':
			s.p++
		default:
			return
		}
	}
}

// plainString returns the contents of a string token made of ASCII bytes
// from space up, without escapes.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.p
	for ; s.p < len(s.b); s.p++ {
		switch c := s.b[s.p]; {
		case c == '"':
			s.p++
			return s.b[start : s.p-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str() (string, bool) {
	v, ok := s.plainString()
	return string(v), ok
}

// int decodes an integer token; a fraction or exponent, which
// encoding/json rejects for an int field, is refused.
func (s *scanner) int() (int, bool) {
	tok, integral := s.number()
	if tok == nil || !integral {
		return 0, false
	}
	v, err := strconv.Atoi(string(tok))
	return v, err == nil
}

func (s *scanner) float() (float64, bool) {
	tok, _ := s.number()
	if tok == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// number returns the next token if it matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and whether it has
// neither fraction nor exponent; tok is nil otherwise.
func (s *scanner) number() (tok []byte, integral bool) {
	b, p := s.b, s.p
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
	tok, s.p = b[s.p:p], p
	return tok, integral
}

func skipDigits(b []byte, p int) int {
	for p < len(b) && b[p]-'0' <= 9 {
		p++
	}
	return p
}

// AppendSolution appends the JSON encoding of s to b, byte-identical to
// json.NewEncoder(w).Encode(s): the same float formatting, HTML-escaped
// strings, omitted empty lambda, mu and precond_ns, and the trailing
// newline. JSON cannot carry NaN or ±Inf; a non-finite value fails the
// whole encoding, with b returned unextended.
func AppendSolution(b []byte, s *Solution) ([]byte, error) {
	for _, vs := range [...][]float64{s.X, s.S, s.D, s.Lambda, s.Mu} {
		for _, v := range vs {
			if err := checkFinite(v); err != nil {
				return b, err
			}
		}
	}
	if err := checkFinite(s.Residual); err != nil {
		return b, err
	}
	if err := checkFinite(s.Objective); err != nil {
		return b, err
	}
	b = append(b, `{"x":`...)
	b = appendFloats(b, s.X)
	b = append(b, `,"s":`...)
	b = appendFloats(b, s.S)
	b = append(b, `,"d":`...)
	b = appendFloats(b, s.D)
	if len(s.Lambda) > 0 {
		b = append(b, `,"lambda":`...)
		b = appendFloats(b, s.Lambda)
	}
	if len(s.Mu) > 0 {
		b = append(b, `,"mu":`...)
		b = appendFloats(b, s.Mu)
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(s.Iterations), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, s.Converged)
	b = append(b, `,"status":`...)
	b = appendString(b, s.Status)
	b = append(b, `,"residual":`...)
	b = appendFloat(b, s.Residual)
	b = append(b, `,"objective":`...)
	b = appendFloat(b, s.Objective)
	b = append(b, `,"objective_kind":`...)
	b = appendString(b, s.ObjectiveKind)
	if s.PrecondNs != 0 {
		b = append(b, `,"precond_ns":`...)
		b = strconv.AppendInt(b, s.PrecondNs, 10)
	}
	return append(b, "}\n"...), nil
}

func checkFinite(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("matio: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	return nil
}

func appendFloats(b []byte, vs []float64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// appendFloat formats a finite v as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 in magnitude,
// with a one-digit negative exponent unpadded (e-7, not e-07).
func appendFloat(b []byte, v float64) []byte {
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

// appendString quotes s; a string needing any escape (under
// encoding/json's default HTML-safe rules) goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

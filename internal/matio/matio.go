// Package matio reads and writes constrained matrix problems and solutions:
// plain CSV for matrices and a JSON container for whole problems, used by
// cmd/seasolve and cmd/seagen.
package matio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"sea/internal/core"
)

// ReadMatrixCSV parses a rectangular numeric CSV into a row-major matrix.
func ReadMatrixCSV(r io.Reader) (m, n int, data []float64, err error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("matio: %w", err)
	}
	if len(records) == 0 {
		return 0, 0, nil, fmt.Errorf("matio: empty matrix")
	}
	m = len(records)
	n = len(records[0])
	data = make([]float64, 0, m*n)
	for i, rec := range records {
		if len(rec) != n {
			return 0, 0, nil, fmt.Errorf("matio: row %d has %d fields, want %d", i, len(rec), n)
		}
		for j, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("matio: cell (%d,%d): %w", i, j, err)
			}
			data = append(data, v)
		}
	}
	return m, n, data, nil
}

// WriteMatrixCSV writes a row-major matrix as CSV with full precision.
func WriteMatrixCSV(w io.Writer, m, n int, data []float64) error {
	if len(data) != m*n {
		return fmt.Errorf("matio: data length %d != %d×%d", len(data), m, n)
	}
	cw := csv.NewWriter(w)
	rec := make([]string, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			rec[j] = strconv.FormatFloat(data[i*n+j], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Problem is the JSON container for a diagonal constrained matrix problem.
// Matrices are row-major flat arrays with explicit dimensions. Omitted
// Gamma defaults to the chi-square weighting 1/max(x⁰, 0.1); omitted
// Alpha/Beta (for elastic problems) default to 1.
//
// With Storage "csr" the per-cell arrays (x0, gamma, upper, lower) carry one
// entry per stored cell instead of m×n, and the parallel rows/cols arrays
// give each stored cell's coordinates in canonical order: row-major, column
// strictly increasing within a row. The writer emits exactly that order, and
// the reader rejects any other, so read→write→read is a fixed point.
type Problem struct {
	Kind string `json:"kind"` // "fixed", "elastic", "balanced" or "interval"
	// Objective selects the objective family to minimize: "" or "quadratic"
	// for the paper's weighted least squares, "entropy" (or "kl") for the
	// KL divergence to the prior. It is a solve request attribute rather
	// than problem data — ToCore ignores it; use ObjectiveKind.
	Objective string `json:"objective,omitempty"`
	M         int    `json:"m"`
	N         int    `json:"n"`
	// Storage selects the per-cell layout: "" or "dense" for row-major m×n
	// arrays, "csr" for support-only arrays indexed by rows/cols triplets.
	Storage string    `json:"storage,omitempty"`
	Rows    []int     `json:"rows,omitempty"`
	Cols    []int     `json:"cols,omitempty"`
	X0      []float64 `json:"x0"`
	Gamma   []float64 `json:"gamma,omitempty"`
	S0      []float64 `json:"s0,omitempty"`
	D0      []float64 `json:"d0,omitempty"`
	Alpha   []float64 `json:"alpha,omitempty"`
	Beta    []float64 `json:"beta,omitempty"`
	Upper   []float64 `json:"upper,omitempty"`
	Lower   []float64 `json:"lower,omitempty"`
	// Interval-totals bounds (kind "interval").
	SLo []float64 `json:"slo,omitempty"`
	SHi []float64 `json:"shi,omitempty"`
	DLo []float64 `json:"dlo,omitempty"`
	DHi []float64 `json:"dhi,omitempty"`
}

// FromCore converts a core problem to its JSON container.
func FromCore(p *core.DiagonalProblem) *Problem {
	out := &Problem{
		Kind: p.Kind.String(),
		M:    p.M, N: p.N,
		X0: p.X0, Gamma: p.Gamma,
		S0: p.S0, D0: p.D0,
		Alpha: p.Alpha, Beta: p.Beta,
		Upper: p.Upper, Lower: p.Lower,
		SLo: p.SLo, SHi: p.SHi, DLo: p.DLo, DHi: p.DHi,
	}
	if p.Pattern != nil {
		out.Storage = core.CSR.String()
		out.Rows, out.Cols = p.Pattern.Triplets()
	}
	return out
}

// ToCore converts the JSON container to a validated core problem: the
// conversion of ToCoreUnvalidated, then DiagonalProblem.Validate, whose
// error it returns as is.
func (j *Problem) ToCore() (*core.DiagonalProblem, error) {
	p, err := j.ToCoreUnvalidated()
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ToCoreUnvalidated converts the JSON container to a core problem, with
// ToCore's structural checks and defaults but without the value check
// (DiagonalProblem.Validate), for a caller that validates the result
// itself, as sea.NewDiagonal does.
//
// The dimensions are vetted before any defaulting allocates: the container
// is decoded from untrusted bytes (files, HTTP bodies), and a huge claimed
// M or N must fail cleanly rather than drive a multi-terabyte allocation.
// Requiring len(X0) == M×N up front bounds every subsequent allocation by
// the input's own size.
func (j *Problem) ToCoreUnvalidated() (*core.DiagonalProblem, error) {
	if j.M <= 0 || j.N <= 0 {
		return nil, fmt.Errorf("matio: invalid dimensions %d×%d", j.M, j.N)
	}
	sparse := false
	switch j.Storage {
	case "", "dense":
		if j.Rows != nil || j.Cols != nil {
			return nil, fmt.Errorf("matio: rows/cols present without storage \"csr\"")
		}
		if j.M > math.MaxInt/j.N {
			return nil, fmt.Errorf("matio: dimensions %d×%d overflow", j.M, j.N)
		}
		if len(j.X0) != j.M*j.N {
			return nil, fmt.Errorf("matio: len(x0) = %d, want m×n = %d", len(j.X0), j.M*j.N)
		}
	case "csr":
		sparse = true
		if len(j.X0) != len(j.Rows) || len(j.Cols) != len(j.Rows) {
			return nil, fmt.Errorf("matio: csr arrays disagree: len(x0) = %d, len(rows) = %d, len(cols) = %d",
				len(j.X0), len(j.Rows), len(j.Cols))
		}
	default:
		return nil, fmt.Errorf("matio: unknown storage %q", j.Storage)
	}
	p := &core.DiagonalProblem{
		M: j.M, N: j.N,
		X0: j.X0, Gamma: j.Gamma,
		S0: j.S0, D0: j.D0,
		Alpha: j.Alpha, Beta: j.Beta,
		Upper: j.Upper, Lower: j.Lower,
		SLo: j.SLo, SHi: j.SHi, DLo: j.DLo, DHi: j.DHi,
	}
	if sparse {
		// Building the pattern allocates a RowPtr of length M+1 from an
		// untrusted claimed M, so bound M (and N) by arrays the problem must
		// carry anyway — the kind's own total vectors — before allocating.
		rowLen, colLen := len(j.S0), len(j.D0)
		switch j.Kind {
		case "balanced":
			colLen = len(j.S0)
		case "interval":
			rowLen, colLen = len(j.SLo), len(j.DLo)
		}
		if rowLen != j.M || colLen != j.N {
			return nil, fmt.Errorf("matio: csr problem needs its totals sized to %d×%d (got %d row-side, %d column-side)",
				j.M, j.N, rowLen, colLen)
		}
		pt, err := core.NewPatternFromTriplets(j.M, j.N, j.Rows, j.Cols)
		if err != nil {
			return nil, fmt.Errorf("matio: %w", err)
		}
		p.Pattern = pt
	}
	switch j.Kind {
	case "fixed", "":
		p.Kind = core.FixedTotals
	case "elastic":
		p.Kind = core.ElasticTotals
	case "balanced":
		p.Kind = core.Balanced
	case "interval":
		p.Kind = core.IntervalTotals
	default:
		return nil, fmt.Errorf("matio: unknown kind %q", j.Kind)
	}
	if p.Gamma == nil {
		p.Gamma = make([]float64, len(p.X0))
		for k, v := range p.X0 {
			p.Gamma[k] = 1 / math.Max(v, 0.1)
		}
	}
	if p.Kind != core.FixedTotals && p.Alpha == nil {
		p.Alpha = ones(p.M)
	}
	if p.Kind == core.ElasticTotals && p.Beta == nil {
		p.Beta = ones(p.N)
	}
	return p, nil
}

// ObjectiveKind parses the container's objective field ("" defaults to
// quadratic; "kl" is accepted as an alias for entropy).
func (j *Problem) ObjectiveKind() (core.Objective, error) {
	obj, err := core.ParseObjective(j.Objective)
	if err != nil {
		return core.ObjectiveQuadratic, fmt.Errorf("matio: %w", err)
	}
	return obj, nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// ReadProblemJSON decodes and validates a problem.
func ReadProblemJSON(r io.Reader) (*core.DiagonalProblem, error) {
	j, err := DecodeProblem(r)
	if err != nil {
		return nil, err
	}
	return j.ToCore()
}

// WriteProblemJSON encodes a problem with indentation.
func WriteProblemJSON(w io.Writer, p *core.DiagonalProblem) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(FromCore(p))
}

// Solution is the JSON container for a solve result.
type Solution struct {
	X          []float64 `json:"x"`
	S          []float64 `json:"s"`
	D          []float64 `json:"d"`
	Lambda     []float64 `json:"lambda,omitempty"`
	Mu         []float64 `json:"mu,omitempty"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	// Status is the solve's explicit outcome ("converged",
	// "max-iterations", "diverged", "cancelled", "saturated", or "unknown").
	Status    string  `json:"status"`
	Residual  float64 `json:"residual"`
	Objective float64 `json:"objective"`
	// ObjectiveKind names the objective family the reported Objective value
	// belongs to: "quadratic" or "entropy".
	ObjectiveKind string `json:"objective_kind"`
	// PrecondNs is the preconditioning stage's wall time in nanoseconds;
	// zero (and omitted) when the solve did not precondition.
	PrecondNs int64 `json:"precond_ns,omitempty"`
	// PrecondSweeps is the number of sweeps the preconditioning stage's
	// warm start ran; zero (and omitted) without a warm start.
	PrecondSweeps int `json:"precond_sweeps,omitempty"`
}

// SolutionFromCore converts a solve result to its JSON container — the
// wire encoding shared by cmd/seasolve and the HTTP transport.
func SolutionFromCore(sol *core.Solution) *Solution {
	return &Solution{
		X: sol.X, S: sol.S, D: sol.D,
		Lambda: sol.Lambda, Mu: sol.Mu,
		Iterations:    sol.Iterations,
		Converged:     sol.Converged,
		Status:        sol.Status.String(),
		Residual:      sol.Residual,
		Objective:     sol.Objective,
		ObjectiveKind: sol.ObjectiveKind.String(),
		PrecondNs:     sol.PrecondNs,
		PrecondSweeps: sol.PrecondSweeps,
	}
}

// WriteSolutionJSON encodes a solution with indentation.
func WriteSolutionJSON(w io.Writer, sol *core.Solution) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(SolutionFromCore(sol))
}

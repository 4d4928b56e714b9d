package seahttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// nanBackend answers every solve with a best iterate that JSON cannot
// carry, as a diverged solve at its iteration limit may.
type nanBackend struct{ Backend }

func (nanBackend) Submit(context.Context, *sea.Problem, *sea.Options) (*sea.Solution, error) {
	sol := &sea.Solution{X: []float64{1, math.NaN()}, S: []float64{1}, D: []float64{1}, Residual: math.Inf(1)}
	return sol, fmt.Errorf("solve: %w", sea.ErrNotConverged)
}

// TestSolveNonFiniteIsInternalError: a solution with a NaN is answered
// with the typed 500 envelope, not a 200 with an empty body.
func TestSolveNonFiniteIsInternalError(t *testing.T) {
	h := New(nanBackend{}, Config{})
	defer h.Close()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve",
		bytes.NewReader(problemBody(t, problems.Table1(4, 1)))))
	checkInternalError(t, rec)
}

// TestWriteJSONNonFinite: writeJSON (the job-poll view's renderer) turns an
// unencodable value into the 500 envelope instead of writing the requested
// status with an empty body.
func TestWriteJSONNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"residual": math.NaN()})
	checkInternalError(t, rec)
}

func checkInternalError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || body.Code != "internal" || body.Error == "" {
		t.Fatalf("got %d %+v, want 500 with code internal", rec.Code, body)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
}

// TestSolveDiverged: a solve whose duals diverge has no finite iterate to
// return, so it is answered with the typed 422 envelope, code "diverged",
// rather than as an exhausted iteration budget or an encoding failure.
func TestSolveDiverged(t *testing.T) {
	// Every cell capped at its prior, while each row total is twice the
	// row's prior sum: the ISP duals run off to infinity.
	capped := problems.Table1(8, 1)
	capped.Upper = slices.Clone(capped.X0)
	// Priors, weights and totals scaled by 1e200: SEA's duals overflow in
	// its first row phase.
	huge := problems.Table1(14, 1)
	for _, xs := range [][]float64{huge.X0, huge.Gamma, huge.S0, huge.D0} {
		for i := range xs {
			xs[i] *= 1e200
		}
	}
	for solver, p := range map[string]*sea.DiagonalProblem{"isp": capped, "sea": huge} {
		srv, err := serve.NewSharded(serve.ShardedConfig{Server: serve.Config{Solver: solver}})
		if err != nil {
			t.Fatal(err)
		}
		h := New(srv, Config{})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(problemBody(t, p))))
		h.Close()
		srv.Close()
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: status %d, body %q: %v", solver, rec.Code, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusUnprocessableEntity || body.Code != "diverged" {
			t.Fatalf("%s: got %d %+v, want 422 with code diverged", solver, rec.Code, body)
		}
	}
}

// TestWireTraceEventCarriesInterior: a trace stream event carries the
// iteration's count of subproblems solved at their interior root beside its
// equilibration count, zero included.
func TestWireTraceEventCarriesInterior(t *testing.T) {
	for _, e := range []sea.TraceEvent{
		{Iteration: 3, Equilibrations: 40, Interior: 37, Ops: 900},
		{Iteration: 4, Equilibrations: 40, Ops: 900},
	} {
		b, err := json.Marshal(wireTraceEvent(e))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got["equilibrations"] != float64(e.Equilibrations) || got["interior"] != float64(e.Interior) {
			t.Errorf("event %+v encodes as %s", e, b)
		}
	}
}

// TestInvalidValuesAnswerAsToCore: the handler converts a body without the
// value check and leaves it to sea.NewDiagonal, so every invalid body must
// still be answered with ToCore's error in the ErrInvalidProblem wrapping:
// the same text and the status that error maps to.
func TestInvalidValuesAnswerAsToCore(t *testing.T) {
	base, _, _, _ := newStack(t, serve.Config{MaxInFlight: 2}, Config{})
	valid := func() *matio.Problem {
		return &matio.Problem{Kind: "fixed", M: 2, N: 2,
			X0: []float64{1, 2, 3, 4}, Gamma: []float64{1, 1, 1, 1},
			S0: []float64{3, 7}, D0: []float64{4, 6}}
	}
	cases := map[string]func(*matio.Problem){
		"zero gamma":     func(j *matio.Problem) { j.Gamma[3] = 0 },
		"negative gamma": func(j *matio.Problem) { j.Gamma[1] = -1 },
		"negative upper": func(j *matio.Problem) { j.Upper = []float64{5, 5, -1, 5} },
		"negative lower": func(j *matio.Problem) { j.Lower = []float64{0, -2, 0, 0} },
		"empty box": func(j *matio.Problem) {
			j.Upper, j.Lower = []float64{5, 5, 1, 5}, []float64{0, 0, 2, 0}
		},
		"imbalanced totals": func(j *matio.Problem) { j.D0[1] = 9 },
		"negative total":    func(j *matio.Problem) { j.S0[0] = -3 },
		"elastic weight": func(j *matio.Problem) {
			j.Kind, j.Alpha, j.Beta = "elastic", []float64{1, 0}, []float64{1, 1}
		},
	}
	for name, mutate := range cases {
		j := valid()
		mutate(j)
		_, cerr := j.ToCore()
		if cerr == nil {
			t.Fatalf("%s: ToCore accepted the case", name)
		}
		want := fmt.Errorf("%w: %w", sea.ErrInvalidProblem, cerr)
		wantStatus, _ := errorStatus(want)
		body, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus || eb.Error != want.Error() {
			t.Errorf("%s: %d %q, want %d %q", name, resp.StatusCode, eb.Error, wantStatus, want.Error())
		}
	}
}

package seahttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"sea/internal/problems"
	"sea/pkg/sea"
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

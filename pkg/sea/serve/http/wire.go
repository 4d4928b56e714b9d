package seahttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sea/internal/matio"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// Transport-local failure sentinels for conditions that arise before the
// backend is consulted.
var (
	errBadRequest   = errors.New("seahttp: bad request")
	errBodyTooLarge = errors.New("seahttp: request body too large")
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// reported when the client abandoned the request before the solve finished.
const StatusClientClosedRequest = 499

// errorBody is the JSON error envelope: a stable machine-readable code
// (matching the error-to-status table in docs/API.md) plus the full error
// text.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// errorStatus maps a failure to its HTTP status and wire code. Order
// matters where sentinels wrap each other: infeasibility wraps
// ErrInvalidProblem, and tenant-quota rejections wrap sea.ErrSaturated.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, serve.ErrTenantQuota):
		return http.StatusTooManyRequests, "tenant-quota"
	case errors.Is(err, sea.ErrSaturated):
		return http.StatusTooManyRequests, "saturated"
	case errors.Is(err, sea.ErrSessionClosed):
		return http.StatusConflict, "sequence-closed"
	case errors.Is(err, sea.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, sea.ErrInvalidProblem):
		return http.StatusBadRequest, "invalid-problem"
	case errors.Is(err, sea.ErrUnknownSolver):
		return http.StatusBadRequest, "unknown-solver"
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body-too-large"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad-request"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "cancelled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError renders err as its mapped status and JSON envelope. Admission
// rejections (429) advertise an immediate retry: saturation is transient by
// construction — it clears as soon as a slot frees.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Code: code, Error: err.Error()})
}

// writeJSON renders v as the response body with the given status. It
// encodes before writing anything: a value JSON cannot carry (a NaN or ±Inf
// in a job's solution) becomes the 500 internal envelope rather than the
// status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(errorBody{Code: "internal", Error: err.Error()}) // strings always marshal
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n')) // a failed write means the client has gone
}

// respPool recycles the solve endpoints' response buffers; one above
// maxPooledResponse is left to the collector rather than pinned.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 4 << 20

// writeSolution renders a solve result, encoding it in full before the
// headers go out, so that a solution the wire cannot carry (a non-finite
// value) is answered with the 500 internal envelope, not an empty 200.
func writeSolution(w http.ResponseWriter, sol *sea.Solution) {
	bp := respPool.Get().(*[]byte)
	b, err := matio.AppendSolution((*bp)[:0], matio.SolutionFromCore(sol))
	defer func() {
		if cap(b) <= maxPooledResponse {
			*bp = b
			respPool.Put(bp)
		}
	}()
	if err != nil {
		writeError(w, fmt.Errorf("seahttp: encode solution: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Header().Set("X-Sea-Status", sol.Status.String())
	_, _ = w.Write(b) // a failed write means the client has gone
}

// latencyJSON is a metrics.LatencySnapshot on the wire, in milliseconds.
type latencyJSON struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// shapeJSON is one shape pool's snapshot on the wire.
type shapeJSON struct {
	M       int    `json:"m"`
	N       int    `json:"n"`
	General bool   `json:"general,omitempty"`
	Arenas  int    `json:"arenas"`
	Idle    int    `json:"idle"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
}

// statsJSON is a serve.Stats snapshot on the wire.
type statsJSON struct {
	Submitted     uint64      `json:"submitted"`
	Completed     uint64      `json:"completed"`
	Failed        uint64      `json:"failed"`
	Rejected      uint64      `json:"rejected"`
	InFlight      int64       `json:"in_flight"`
	PeakInFlight  int64       `json:"peak_in_flight"`
	Queued        int64       `json:"queued"`
	PeakQueued    int64       `json:"peak_queued"`
	ShapeHitRate  float64     `json:"shape_hit_rate"`
	ArenasEvicted uint64      `json:"arenas_evicted"`
	QueueWait     latencyJSON `json:"queue_wait"`
	Solve         latencyJSON `json:"solve"`
	Iterations    int64       `json:"solver_iterations"`
	Shapes        []shapeJSON `json:"shapes,omitempty"`
}

// statsResponse is the GET /v1/stats document.
type statsResponse struct {
	Stats     statsJSON   `json:"stats"`
	Shards    []statsJSON `json:"shards,omitempty"`
	Jobs      jobCounts   `json:"jobs"`
	Sequences int         `json:"sequences"`
}

func wireStats(st serve.Stats) statsJSON {
	out := statsJSON{
		Submitted:     st.Submitted,
		Completed:     st.Completed,
		Failed:        st.Failed,
		Rejected:      st.Rejected,
		InFlight:      st.InFlight,
		PeakInFlight:  st.PeakInFlight,
		Queued:        st.Queued,
		PeakQueued:    st.PeakQueued,
		ShapeHitRate:  st.HitRate(),
		ArenasEvicted: st.ArenasEvicted,
		QueueWait:     latencyJSON{Count: st.QueueWait.Count, MeanMs: ms(st.QueueWait.Mean), MaxMs: ms(st.QueueWait.Max)},
		Solve:         latencyJSON{Count: st.Solve.Count, MeanMs: ms(st.Solve.Mean), MaxMs: ms(st.Solve.Max)},
		Iterations:    st.Solver.Iterations,
	}
	for _, sh := range st.Shapes {
		out.Shapes = append(out.Shapes, shapeJSON{
			M: sh.M, N: sh.N, General: sh.General,
			Arenas: sh.Arenas, Idle: sh.Idle,
			Hits: sh.Hits, Misses: sh.Misses, Evicted: sh.Evicted,
		})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceEventJSON is one solver iteration on the trace stream (NDJSON, one
// object per line).
type traceEventJSON struct {
	Iteration int     `json:"iteration"`
	Inner     int     `json:"inner,omitempty"`
	Checked   bool    `json:"checked"`
	Residual  float64 `json:"residual,omitempty"` // omitted when unchecked or non-finite
	RowNs     int64   `json:"row_ns"`
	ColNs     int64   `json:"col_ns"`
	CheckNs   int64   `json:"check_ns,omitempty"`
	Equil     int64   `json:"equilibrations"`
	Ops       int64   `json:"ops"`
}

func wireTraceEvent(e sea.TraceEvent) traceEventJSON {
	out := traceEventJSON{
		Iteration: e.Iteration,
		Inner:     e.Inner,
		Checked:   e.Checked,
		RowNs:     int64(e.RowPhase),
		ColNs:     int64(e.ColPhase),
		CheckNs:   int64(e.CheckPhase),
		Equil:     e.Equilibrations,
		Ops:       e.Ops,
	}
	// JSON has no encoding for non-finite numbers and encoding/json fails
	// the whole Encode on one — which, mid-stream, would truncate the NDJSON
	// after the status line. Early iterations legitimately report an
	// infinite residual (nothing measured yet), so omit the field then.
	if e.Checked && !math.IsInf(e.Residual, 0) && !math.IsNaN(e.Residual) {
		out.Residual = e.Residual
	}
	return out
}

// Package seahttp is the HTTP/JSON transport over the serving layer: a
// net/http Handler exposing a serve.Server or serve.ShardedServer as a
// network service. The wire formats are internal/matio's problem and
// solution containers — the same JSON cmd/seasolve reads and writes — so a
// problem file solves identically from the CLI and over the network.
//
// Endpoints (all under /v1):
//
//	POST /v1/solve            solve synchronously; body = problem JSON,
//	                          response = solution JSON
//	POST /v1/jobs             submit asynchronously; returns a job id
//	GET  /v1/jobs/{id}        poll a job's state (and result when done)
//	GET  /v1/jobs/{id}/trace  stream the job's per-iteration trace events
//	                          as chunked NDJSON while it solves
//	DELETE /v1/jobs/{id}      cancel a running job
//	GET  /v1/stats            the backend's Stats snapshot (per shard too,
//	                          for sharded backends)
//	GET  /v1/healthz          liveness probe
//
// Failures map to typed statuses (see docs/API.md): invalid problems are
// 400, infeasible ones 422, admission-control rejections 429 (with a
// Retry-After), a closed server 503, and a request deadline 504. A solve
// that exhausts its iteration limit is not a transport failure: it returns
// 200 with the best iterate and "status": "max-iterations", mirroring the
// facade's ErrNotConverged contract.
//
// The requesting tenant is taken from the X-Sea-Tenant header and threaded
// to the backend's per-tenant quotas (serve.WithTenant); a per-request
// solve budget can be set with the ?timeout= query parameter.
package seahttp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sea/internal/matio"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// Backend is the serving surface the transport fronts. Both *serve.Server
// and *serve.ShardedServer implement it. The Handler does not own the
// backend: Close the Handler first (drains jobs and streams), then the
// backend.
type Backend interface {
	Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error)
	// SubmitTraced solves with per-request options (nil = the backend's
	// configured template) plus a trace observer — the streamed-trace job
	// path.
	SubmitTraced(ctx context.Context, p *sea.Problem, opts *sea.Options, obs sea.Trace) (*sea.Solution, error)
	// RequestOptions resolves per-request overrides (preconditioning,
	// objective family) against the backend's configured template; nil means
	// the template already matches and the warm zero-alloc submit path
	// applies.
	RequestOptions(overrides ...serve.Override) *sea.Options
	// NewSession opens a temporal-sequence session: an ordered stream of
	// same-shape problems chaining warm state period to period. The /v1
	// sequences endpoints ride this.
	NewSession(cfg serve.SessionConfig) (*serve.Session, error)
	Stats() serve.Stats
}

// ShardedBackend is the optional per-shard view; *serve.ShardedServer
// implements it, and /v1/stats includes the per-shard breakdown when the
// backend does.
type ShardedBackend interface {
	ShardStats() []serve.Stats
	NumShards() int
}

// Config parameterizes a Handler. The zero value is a working default.
type Config struct {
	// MaxBodyBytes caps a request body (default 32 MiB). Oversized bodies
	// fail with 413 before the decoder sees them.
	MaxBodyBytes int64
	// MaxJobs caps concurrently tracked asynchronous jobs, running and
	// retained (default 1024). Beyond it, POST /v1/jobs answers 429.
	MaxJobs int
	// JobTTL is how long a finished job's result stays pollable (default
	// 10 minutes); expired jobs are purged lazily on job-store access.
	JobTTL time.Duration
	// TraceBuffer is the per-job backlog of trace events replayed to
	// subscribers that attach mid-solve (default 1024). Older events are
	// dropped oldest-first and reported in the stream's closing summary.
	TraceBuffer int
	// MaxSequences caps concurrently open sequence sessions (default 64).
	// Beyond it, POST /v1/sequences answers 429.
	MaxSequences int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 1024
	}
	if c.MaxSequences <= 0 {
		c.MaxSequences = 64
	}
	return c
}

// Handler serves the /v1 API over a Backend. Create with New, then mount it
// on any net/http server; Close it before closing the backend.
type Handler struct {
	backend Backend
	cfg     Config
	mux     *http.ServeMux
	jobs    *jobStore
	seqs    *sequenceStore

	// baseCtx parents every asynchronous job's context, so Close cancels
	// all running jobs at once.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // running jobs and open trace streams
}

// New returns a Handler serving the /v1 API over b.
func New(b Backend, cfg Config) *Handler {
	h := &Handler{
		backend: b,
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
	}
	h.baseCtx, h.cancel = context.WithCancel(context.Background())
	h.jobs = newJobStore(h.cfg.MaxJobs, h.cfg.JobTTL)
	h.seqs = newSequenceStore(h.cfg.MaxSequences)
	h.mux.HandleFunc("POST /v1/solve", h.handleSolve)
	h.mux.HandleFunc("POST /v1/jobs", h.handleSubmitJob)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.handlePollJob)
	h.mux.HandleFunc("DELETE /v1/jobs/{id}", h.handleCancelJob)
	h.mux.HandleFunc("GET /v1/jobs/{id}/trace", h.handleTraceStream)
	h.mux.HandleFunc("POST /v1/sequences", h.handleCreateSequence)
	h.mux.HandleFunc("POST /v1/sequences/{id}/solve", h.handleSequenceSolve)
	h.mux.HandleFunc("GET /v1/sequences/{id}", h.handleSequenceStats)
	h.mux.HandleFunc("DELETE /v1/sequences/{id}", h.handleCloseSequence)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.isClosed() {
		writeError(w, serve.ErrClosed)
		return
	}
	h.mux.ServeHTTP(w, r)
}

// Close stops accepting requests, cancels every running job, and waits for
// job goroutines and open trace streams to drain. It is idempotent and does
// not close the Backend (the caller owns it).
func (h *Handler) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.cancel()
	h.wg.Wait()
	// Sequence sessions close after the drain barrier: a session Solve in
	// flight holds the session's serialization token, and Close waits on it.
	h.seqs.closeAll()
}

func (h *Handler) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// track registers one unit of background work (a job solve or an open
// stream) against Close's drain barrier; it fails once Close has begun.
func (h *Handler) track() (release func(), ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, false
	}
	h.wg.Add(1)
	return h.wg.Done, true
}

// readProblem decodes and validates the request body's problem JSON. The
// body's optional "objective" attribute is returned alongside (hasObj
// reports whether it was present); an unknown family fails here with 400.
func (h *Handler) readProblem(w http.ResponseWriter, r *http.Request) (p *sea.Problem, obj sea.Objective, hasObj bool, err error) {
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	jp, err := matio.DecodeProblem(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, 0, false, fmt.Errorf("%w: body exceeds %d bytes", errBodyTooLarge, tooLarge.Limit)
		}
		return nil, 0, false, fmt.Errorf("%w: %w", sea.ErrInvalidProblem, err)
	}
	obj, err = jp.ObjectiveKind()
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: %w", sea.ErrInvalidProblem, err)
	}
	d, err := jp.ToCore()
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: %w", sea.ErrInvalidProblem, err)
	}
	p, err = sea.NewDiagonal(d)
	return p, obj, jp.Objective != "", err
}

// requestContext derives the solve context: the caller's tenant header and
// optional ?timeout= budget applied to ctx.
func requestContext(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc, error) {
	if tenant := r.Header.Get("X-Sea-Tenant"); tenant != "" {
		ctx = serve.WithTenant(ctx, tenant)
	}
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("%w: invalid timeout %q", errBadRequest, v)
		}
		ctx, cancel := context.WithTimeout(ctx, d)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// requestOverrides parses the per-request override parameters —
// ?precondition= and ?objective= — into serve overrides. The body's
// objective attribute participates too; the query parameter wins when both
// are present. Bad values fail with 400 before the backend is consulted.
func requestOverrides(r *http.Request, bodyObj sea.Objective, hasBodyObj bool) ([]serve.Override, error) {
	var overrides []serve.Override
	if v := r.URL.Query().Get("precondition"); v != "" {
		pc, err := sea.ParsePrecond(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		overrides = append(overrides, serve.WithPrecond(pc))
	}
	if v := r.URL.Query().Get("objective"); v != "" {
		obj, err := sea.ParseObjective(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		overrides = append(overrides, serve.WithObjective(obj))
	} else if hasBodyObj {
		overrides = append(overrides, serve.WithObjective(bodyObj))
	}
	return overrides, nil
}

// requestOptions resolves the request's override parameters against the
// backend's option template: absent or matching values return nil (the
// warm zero-alloc submit path), anything else a one-request option clone.
func (h *Handler) requestOptions(r *http.Request, bodyObj sea.Objective, hasBodyObj bool) (*sea.Options, error) {
	overrides, err := requestOverrides(r, bodyObj, hasBodyObj)
	if err != nil {
		return nil, err
	}
	if len(overrides) == 0 {
		return nil, nil
	}
	return h.backend.RequestOptions(overrides...), nil
}

// handleSolve is the synchronous path: decode, submit, encode. It is the
// hot endpoint the load generator drives; everything per-request lives on
// the stack or in the decoder.
func (h *Handler) handleSolve(w http.ResponseWriter, r *http.Request) {
	p, bodyObj, hasBodyObj, err := h.readProblem(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	opts, err := h.requestOptions(r, bodyObj, hasBodyObj)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := requestContext(r.Context(), r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	sol, err := h.backend.Submit(ctx, p, opts)
	// Iteration-limit exhaustion still carries the best iterate: per the
	// facade contract that is a result, not a transport failure.
	if err != nil && !(errors.Is(err, sea.ErrNotConverged) && sol != nil) {
		writeError(w, err)
		return
	}
	writeSolution(w, sol)
}

// handleStats renders the backend's merged snapshot, plus the per-shard
// breakdown for sharded backends.
func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Stats: wireStats(h.backend.Stats())}
	if sb, ok := h.backend.(ShardedBackend); ok {
		resp.Shards = make([]statsJSON, 0, sb.NumShards())
		for _, st := range sb.ShardStats() {
			resp.Shards = append(resp.Shards, wireStats(st))
		}
	}
	resp.Jobs = h.jobs.counts()
	resp.Sequences = h.seqs.count()
	writeJSON(w, http.StatusOK, resp)
}

package seahttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sea/internal/matio"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// jobState is a job's lifecycle phase on the wire.
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// job is one asynchronous solve: its cancellable context, the bounded
// backlog of trace events for late stream subscribers, and the result once
// finished. All mutable fields are guarded by mu; doneCh closes exactly
// once, when the solve returns.
type job struct {
	id     string
	cancel context.CancelFunc
	doneCh chan struct{}

	mu       sync.Mutex
	events   []sea.TraceEvent // backlog ring, capped at the handler's TraceBuffer
	dropped  int              // events aged out of the backlog
	subs     map[chan sea.TraceEvent]struct{}
	state    string
	sol      *sea.Solution
	err      error
	finished time.Time
	buffer   int
}

// ObserveIteration implements the trace observer attached to the job's
// solve: append to the backlog (oldest-first eviction beyond the buffer)
// and fan out to live subscribers. A slow subscriber's channel may be full;
// the event is then dropped for that subscriber only — streaming is
// best-effort, the backlog is the durable record.
func (j *job) ObserveIteration(e sea.TraceEvent) {
	j.mu.Lock()
	if len(j.events) == j.buffer {
		copy(j.events, j.events[1:])
		j.events[len(j.events)-1] = e
		j.dropped++
	} else {
		j.events = append(j.events, e)
	}
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
	j.mu.Unlock()
}

// finish records the solve's outcome and wakes pollers and streams.
func (j *job) finish(sol *sea.Solution, err error) {
	j.mu.Lock()
	j.sol = sol
	j.err = err
	if !isResult(sol, err) {
		j.state = jobFailed
	} else {
		j.state = jobDone
	}
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.doneCh)
}

// subscribe registers a trace stream: it returns the backlog so far and a
// channel receiving subsequent events. The channel's buffer absorbs bursts;
// see ObserveIteration for the overflow contract.
func (j *job) subscribe() (backlog []sea.TraceEvent, ch chan sea.TraceEvent) {
	ch = make(chan sea.TraceEvent, 256)
	j.mu.Lock()
	backlog = append([]sea.TraceEvent(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return backlog, ch
}

func (j *job) unsubscribe(ch chan sea.TraceEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// jobStore tracks live jobs by id, bounded in count, with lazy TTL purge of
// finished entries.
type jobStore struct {
	max int
	ttl time.Duration

	mu   sync.Mutex
	jobs map[string]*job
	seq  atomic.Uint64
}

func newJobStore(max int, ttl time.Duration) *jobStore {
	return &jobStore{max: max, ttl: ttl, jobs: make(map[string]*job)}
}

// add registers a new job, enforcing the live-job cap after purging
// expired results.
func (s *jobStore) add(cancel context.CancelFunc, buffer int) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	if len(s.jobs) >= s.max {
		return nil, fmt.Errorf("%w: %d jobs tracked (limit %d)", sea.ErrSaturated, len(s.jobs), s.max)
	}
	j := &job{
		id:     fmt.Sprintf("j%06d", s.seq.Add(1)),
		cancel: cancel,
		doneCh: make(chan struct{}),
		subs:   make(map[chan sea.TraceEvent]struct{}),
		state:  jobRunning,
		buffer: buffer,
	}
	s.jobs[j.id] = j
	return j, nil
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	return s.jobs[id]
}

// purgeLocked drops finished jobs older than the TTL. Caller holds mu.
func (s *jobStore) purgeLocked() {
	if s.ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.ttl)
	for id, j := range s.jobs {
		j.mu.Lock()
		expired := j.state != jobRunning && j.finished.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
		}
	}
}

// jobCounts is the job-store gauge pair reported by /v1/stats.
type jobCounts struct {
	Running  int `json:"running"`
	Retained int `json:"retained"`
}

func (s *jobStore) counts() jobCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c jobCounts
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == jobRunning {
			c.Running++
		} else {
			c.Retained++
		}
		j.mu.Unlock()
	}
	return c
}

// jobRef is the POST /v1/jobs response: the id plus the derived endpoints.
type jobRef struct {
	ID    string `json:"id"`
	Poll  string `json:"poll"`
	Trace string `json:"trace"`
}

// jobView is the GET /v1/jobs/{id} response.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Events   int             `json:"trace_events"`
	Solution *matio.Solution `json:"solution,omitempty"`
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"code,omitempty"`
}

// handleSubmitJob starts an asynchronous solve: the problem decodes and
// validates synchronously (so malformed requests fail with 400 here, not in
// a poll), then the solve runs on the handler's base context — detached
// from the HTTP request, cancelled by DELETE or Close.
func (h *Handler) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
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
	ctx, cancel, err := requestContext(h.baseCtx, r)
	if err != nil {
		writeError(w, err)
		return
	}
	j, err := h.jobs.add(cancel, h.cfg.TraceBuffer)
	if err != nil {
		cancel()
		writeError(w, err)
		return
	}
	release, ok := h.track()
	if !ok {
		cancel()
		j.finish(nil, serve.ErrClosed)
		writeError(w, serve.ErrClosed)
		return
	}
	go func() {
		defer release()
		defer cancel()
		sol, err := h.backend.SubmitTraced(ctx, p, opts, j)
		j.finish(sol, err)
	}()
	writeJSON(w, http.StatusAccepted, jobRef{
		ID:    j.id,
		Poll:  "/v1/jobs/" + j.id,
		Trace: "/v1/jobs/" + j.id + "/trace",
	})
}

// handlePollJob reports a job's state and, once finished, its result.
func (h *Handler) handlePollJob(w http.ResponseWriter, r *http.Request) {
	j := h.jobs.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-job", Error: "seahttp: unknown job id"})
		return
	}
	j.mu.Lock()
	view := jobView{ID: j.id, State: j.state, Events: len(j.events) + j.dropped}
	if j.sol != nil {
		view.Solution = matio.SolutionFromCore(j.sol)
	}
	if j.err != nil && j.state == jobFailed {
		_, view.Code = errorStatus(j.err)
		view.Error = j.err.Error()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleCancelJob cancels a running job's context; the job transitions via
// the solve's own cancellation path: the last iterate with StatusCancelled,
// or no solution when the cancel lands in a PrecondISP warm start.
func (h *Handler) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := h.jobs.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-job", Error: "seahttp: unknown job id"})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": "cancelling"})
}

// traceSummary is the stream's closing line, after the last event.
type traceSummary struct {
	Done    bool   `json:"done"`
	State   string `json:"state"`
	Dropped int    `json:"dropped_events,omitempty"`
}

// handleTraceStream streams a job's trace events as chunked NDJSON: first
// the backlog, then live events as the solver produces them, then a closing
// summary line when the job finishes. The stream ends early if the client
// disconnects or the handler closes; under Close the stream is drained and
// terminated before Close returns.
func (h *Handler) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	j := h.jobs.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-job", Error: "seahttp: unknown job id"})
		return
	}
	release, ok := h.track()
	if !ok {
		writeError(w, serve.ErrClosed)
		return
	}
	defer release()

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies: do not buffer the stream
	w.WriteHeader(http.StatusOK)

	backlog, ch := j.subscribe()
	defer j.unsubscribe(ch)
	write := func(v any) bool {
		if err := json.NewEncoder(w).Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, e := range backlog {
		if !write(wireTraceEvent(e)) {
			return
		}
	}
	for {
		select {
		case e := <-ch:
			if !write(wireTraceEvent(e)) {
				return
			}
		case <-j.doneCh:
			// Drain events that raced the finish, then close the stream.
			for {
				select {
				case e := <-ch:
					if !write(wireTraceEvent(e)) {
						return
					}
					continue
				default:
				}
				break
			}
			j.mu.Lock()
			sum := traceSummary{Done: true, State: j.state, Dropped: j.dropped}
			j.mu.Unlock()
			write(sum)
			return
		case <-r.Context().Done():
			return
		case <-h.baseCtx.Done():
			// Handler closing: the job's context is cancelled too, so its
			// finish is imminent; end the stream now so Close can drain.
			write(traceSummary{Done: false, State: jobRunning})
			return
		}
	}
}

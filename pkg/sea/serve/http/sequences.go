package seahttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// sequence is one open temporal-sequence session plus the request
// parameters it was created with (echoed back by GET).
type sequence struct {
	id        string
	session   *serve.Session
	objective string
	precond   string
	warmDuals bool
}

// sequenceStore tracks open sequence sessions by id, bounded in count.
// Unlike jobs, sequences have no TTL: a sequence is a live resource the
// client closes explicitly (or the handler closes on shutdown).
type sequenceStore struct {
	max int

	mu   sync.Mutex
	seqs map[string]*sequence
	next atomic.Uint64
}

func newSequenceStore(max int) *sequenceStore {
	return &sequenceStore{max: max, seqs: make(map[string]*sequence)}
}

func (s *sequenceStore) add(seq *sequence) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seqs) >= s.max {
		return "", fmt.Errorf("%w: %d sequences open (limit %d)", sea.ErrSaturated, len(s.seqs), s.max)
	}
	seq.id = fmt.Sprintf("q%06d", s.next.Add(1))
	s.seqs[seq.id] = seq
	return seq.id, nil
}

func (s *sequenceStore) get(id string) *sequence {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqs[id]
}

func (s *sequenceStore) remove(id string) *sequence {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seqs[id]
	delete(s.seqs, id)
	return seq
}

func (s *sequenceStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seqs)
}

// closeAll closes every open session; used by Handler.Close.
func (s *sequenceStore) closeAll() {
	s.mu.Lock()
	seqs := make([]*sequence, 0, len(s.seqs))
	for id, seq := range s.seqs {
		seqs = append(seqs, seq)
		delete(s.seqs, id)
	}
	s.mu.Unlock()
	for _, seq := range seqs {
		_ = seq.session.Close()
	}
}

// sequenceRequest is the POST /v1/sequences body. All fields are optional;
// the zero value opens a session on the backend's template options.
type sequenceRequest struct {
	// Objective selects the family every period minimizes ("quadratic",
	// "entropy"/"kl"; default the backend's template).
	Objective string `json:"objective,omitempty"`
	// Precondition selects the preconditioning stage ("none", "scale",
	// "isp"; default the backend's template).
	Precondition string `json:"precondition,omitempty"`
	// WarmDuals chains each period's converged duals into the next solve.
	// Off by default: the default sequence is bit-identical to solving every
	// period cold.
	WarmDuals bool `json:"warm_duals,omitempty"`
}

// sequenceView is the GET /v1/sequences/{id} document (and the creation
// response, minus the endpoints).
type sequenceView struct {
	ID           string `json:"id"`
	Solve        string `json:"solve,omitempty"`
	Objective    string `json:"objective"`
	Precondition string `json:"precondition,omitempty"`
	WarmDuals    bool   `json:"warm_duals"`
	Periods      int    `json:"periods"`
	Iterations   int    `json:"total_iterations"`
	M            int    `json:"m,omitempty"`
	N            int    `json:"n,omitempty"`
}

func wireSequence(seq *sequence, withEndpoints bool) sequenceView {
	st := seq.session.Stats()
	v := sequenceView{
		ID:           seq.id,
		Objective:    seq.objective,
		Precondition: seq.precond,
		WarmDuals:    seq.warmDuals,
		Periods:      st.Periods,
		Iterations:   st.TotalIterations,
		M:            st.M,
		N:            st.N,
	}
	if withEndpoints {
		v.Solve = "/v1/sequences/" + seq.id + "/solve"
	}
	return v
}

// handleCreateSequence opens a sequence session. The body (optional)
// selects the objective family, preconditioning, and dual warm starts;
// unknown values fail with 400 before a session is opened.
func (h *Handler) handleCreateSequence(w http.ResponseWriter, r *http.Request) {
	var req sequenceRequest
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	// An empty body is a valid zero-value request.
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	var overrides []serve.Override
	obj, err := sea.ParseObjective(req.Objective)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if req.Objective != "" {
		overrides = append(overrides, serve.WithObjective(obj))
	}
	if req.Precondition != "" {
		pc, err := sea.ParsePrecond(req.Precondition)
		if err != nil {
			writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
			return
		}
		overrides = append(overrides, serve.WithPrecond(pc))
	}
	session, err := h.backend.NewSession(serve.SessionConfig{
		Options:   h.backend.RequestOptions(overrides...),
		WarmDuals: req.WarmDuals,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	seq := &sequence{
		session:   session,
		objective: obj.String(),
		precond:   req.Precondition,
		warmDuals: req.WarmDuals,
	}
	if _, err := h.seqs.add(seq); err != nil {
		_ = session.Close()
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, wireSequence(seq, true))
}

// handleSequenceSolve runs the next period of a sequence: body = problem
// JSON (its objective attribute, if any, is ignored — the sequence pinned
// the family at creation), response = solution JSON, exactly as /v1/solve.
func (h *Handler) handleSequenceSolve(w http.ResponseWriter, r *http.Request) {
	seq := h.seqs.get(r.PathValue("id"))
	if seq == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-sequence", Error: "seahttp: unknown sequence id"})
		return
	}
	p, _, _, err := h.readProblem(w, r)
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
	sol, err := seq.session.Solve(ctx, p)
	if !isResult(sol, err) {
		writeError(w, err)
		return
	}
	writeSolution(w, sol)
}

// handleSequenceStats reports a sequence's parameters and progress.
func (h *Handler) handleSequenceStats(w http.ResponseWriter, r *http.Request) {
	seq := h.seqs.get(r.PathValue("id"))
	if seq == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-sequence", Error: "seahttp: unknown sequence id"})
		return
	}
	writeJSON(w, http.StatusOK, wireSequence(seq, true))
}

// handleCloseSequence closes a sequence and releases its chained state.
func (h *Handler) handleCloseSequence(w http.ResponseWriter, r *http.Request) {
	seq := h.seqs.remove(r.PathValue("id"))
	if seq == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-sequence", Error: "seahttp: unknown sequence id"})
		return
	}
	_ = seq.session.Close()
	writeJSON(w, http.StatusOK, map[string]string{"id": seq.id, "state": "closed"})
}

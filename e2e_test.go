// End-to-end scenario tests: whole pipelines across packages, the flows a
// downstream user would actually run (generate → solve → certify → encode →
// decode → re-solve).
package sea

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"testing"

	"sea/internal/baseline"
	"sea/internal/core"
	"sea/internal/datasets"
	"sea/internal/matio"
	"sea/internal/problems"
	"sea/internal/spe"
	seaapi "sea/pkg/sea"
	"sea/pkg/sea/serve"
	seahttp "sea/pkg/sea/serve/http"
)

// optsWith returns default options with the given tolerance and limit.
func optsWith(eps float64, maxIter int) *core.Options {
	o := core.DefaultOptions()
	o.Epsilon = eps
	o.MaxIterations = maxIter
	return o
}

// TestE2EIOTableUpdate: the full input/output updating pipeline, including
// the round trip through the JSON problem format.
func TestE2EIOTableUpdate(t *testing.T) {
	spec := problems.IOSpec{Name: "e2e", Sectors: 40, Density: 0.5, Variant: problems.IOGrowth10, Seed: 20}
	p := problems.IOTable(spec)

	// Serialize and reload, as a CLI user would.
	var buf bytes.Buffer
	if err := matio.WriteProblemJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := matio.ReadProblemJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 1e-8
	sol, err := core.SolveDiagonal(context.Background(), p2, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.CheckKKT(p2, sol); !rep.Satisfied(1e-5) {
		t.Fatalf("KKT: %+v", rep)
	}

	// Cross-validate with Dykstra on the same reloaded problem.
	dyk, err := baseline.SolveDykstra(context.Background(), p2, optsWith(1e-8, 200000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dyk.Objective-sol.Objective) > 1e-4*(1+sol.Objective) {
		t.Errorf("SEA %g vs Dykstra %g", sol.Objective, dyk.Objective)
	}

	// RAS solves the same instance (feasible pattern) but a different
	// objective; its result must meet the totals yet differ from SEA's.
	ras, err := seaapi.Solve(context.Background(), "ras", &seaapi.Problem{Diagonal: p2}, optsWith(1e-9, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if !ras.Converged {
		t.Fatal("RAS did not converge on a feasible instance")
	}
	var diff float64
	for k := range ras.X {
		diff += math.Abs(ras.X[k] - sol.X[k])
	}
	if diff < 1e-6 {
		t.Error("RAS and SEA coincided exactly; they solve different objectives")
	}
}

// TestE2ESAMBalancing: every embedded SAM balances, and the solution
// serializes cleanly.
func TestE2ESAMBalancing(t *testing.T) {
	for _, sam := range datasets.All() {
		p := problems.SAMFromDataset(sam)
		o := core.DefaultOptions()
		o.Criterion = core.RelBalance
		o.Epsilon = 1e-8
		sol, err := core.SolveDiagonal(context.Background(), p, o)
		if err != nil {
			t.Fatalf("%s: %v", sam.Name, err)
		}
		var buf bytes.Buffer
		if err := matio.WriteSolutionJSON(&buf, sol); err != nil {
			t.Fatalf("%s: %v", sam.Name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty solution JSON", sam.Name)
		}
		n := sam.N()
		for i := 0; i < n; i++ {
			var rs, cs float64
			for j := 0; j < n; j++ {
				rs += sol.X[i*n+j]
				cs += sol.X[j*n+i]
			}
			if math.Abs(rs-cs) > 1e-5*(1+rs) {
				t.Errorf("%s: account %d unbalanced", sam.Name, i)
			}
		}
	}
}

// TestE2ESpatialPrice: generator → isomorphism → SEA → economic
// verification, plus the asymmetric variant on the same seeds.
func TestE2ESpatialPrice(t *testing.T) {
	p := spe.Generate(20, 18, 21)
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 1e-8
	o.MaxIterations = 500000
	eq, err := p.Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Verify(eq, 1e-7); v.Max() > 1e-5 {
		t.Fatalf("separable equilibrium violated: %+v", v)
	}

	ap := spe.GenerateAsymmetric(10, 10, 21)
	aeq, err := ap.SolveAsymmetric(context.Background(), 1e-8, 50000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := ap.VerifyAsymmetric(aeq, 1e-7); v.Max() > 1e-4 {
		t.Fatalf("asymmetric equilibrium violated: %+v", v)
	}
}

// TestE2EMigrationProjection: migration pipeline with per-state sanity.
func TestE2EMigrationProjection(t *testing.T) {
	spec := problems.MigrationSpec{Name: "e2e", Period: "7580", Variant: problems.MigGrowthSmall, Seed: 22}
	p := problems.MigrationProblem(spec)
	o := core.DefaultOptions()
	o.Criterion = core.DualGradient
	o.Epsilon = 0.01
	o.MaxIterations = 500000
	sol, err := core.SolveDiagonal(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	states := datasets.States()
	n := len(states)
	// Under unit weights a zero-prior diagonal cell fills to
	// (λ_i + μ_i)/2 when that is positive — verify the KKT form rather
	// than assuming the cells stay empty.
	for i := 0; i < n; i++ {
		want := (sol.Lambda[i] + sol.Mu[i]) / 2
		if want < 0 {
			want = 0
		}
		if math.Abs(sol.X[i*n+i]-want) > 1e-6*(1+want) {
			t.Errorf("%s: self-cell %g, KKT form %g", states[i].Name, sol.X[i*n+i], want)
		}
	}
	// Total in-migration equals total out-migration.
	var in, out float64
	for i := range states {
		out += sol.S[i]
		in += sol.D[i]
	}
	if math.Abs(in-out) > 1e-3*(1+out) {
		t.Errorf("flow conservation violated: out %g vs in %g", out, in)
	}
}

// TestE2EGeneralPipeline: dense-G problem through SEA, RC and the projected
// gradient reference, all agreeing.
func TestE2EGeneralPipeline(t *testing.T) {
	p := problems.GeneralDense(5, 5, 23, false)
	o := core.DefaultOptions()
	o.Epsilon = 1e-7
	o.Criterion = core.MaxAbsDelta
	o.SkipDominanceCheck = true
	sea, err := core.SolveGeneral(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := baseline.SolveRC(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := baseline.SolveProjGrad(context.Background(), p, optsWith(1e-6, 100000))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		got  float64
	}{{"RC", rc.Objective}, {"ProjGrad", pg.Objective}} {
		if math.Abs(pair.got-sea.Objective) > 1e-3*(1+sea.Objective) {
			t.Errorf("%s objective %g vs SEA %g", pair.name, pair.got, sea.Objective)
		}
	}
}

// ---------------------------------------------------------------------------
// HTTP front-end end-to-end battery: the full network stack — a sharded
// multi-tenant serving layer (pkg/sea/serve) behind the HTTP/JSON transport
// (pkg/sea/serve/http) on a real loopback listener — driven by concurrent
// clients, checked for bit-identical agreement with direct in-process solves
// and for the documented error-to-status mapping.
// ---------------------------------------------------------------------------

// startHTTPStack starts a sharded server behind the HTTP transport on a
// loopback listener and tears the whole stack down with the test.
func startHTTPStack(t *testing.T, cfg serve.ShardedConfig, hcfg seahttp.Config) (base string, srv *serve.ShardedServer) {
	t.Helper()
	srv, err := serve.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handler := seahttp.New(srv, hcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)
	t.Cleanup(func() {
		httpSrv.Close()
		handler.Close()
		srv.Close()
	})
	return "http://" + ln.Addr().String(), srv
}

// httpSolveOptions is the solve configuration shared by the HTTP e2e servers
// and their direct in-process reference solves.
func httpSolveOptions() *seaapi.Options {
	o := seaapi.DefaultOptions()
	o.Criterion = seaapi.MaxAbsDelta
	o.Epsilon = 1e-6
	o.MaxIterations = 500000
	return o
}

// wrapDiagonal wraps a known-valid diagonal problem for a reference solve.
func wrapDiagonal(t *testing.T, d *core.DiagonalProblem) *seaapi.Problem {
	t.Helper()
	p, err := seaapi.NewDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encodeProblem renders p as the wire JSON the HTTP endpoints accept.
func encodeProblem(t *testing.T, p *core.DiagonalProblem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matio.WriteProblemJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postJSON posts body and decodes the response envelope into out (when the
// pointer is non-nil), returning the status code and headers.
func postJSON(t *testing.T, url string, body []byte, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, data)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestE2EHTTPBitIdenticalAcrossShards: a mixed-shape concurrent workload
// through the real HTTP front end must return solutions bit-identical to
// direct sea.Solve, at every shard count. This is the end-to-end determinism
// contract: JSON round trips, consistent-hash routing, arena reuse, and
// kernel warm starts change nothing about the numbers.
func TestE2EHTTPBitIdenticalAcrossShards(t *testing.T) {
	mix := []*core.DiagonalProblem{
		problems.Table1(12, 5),
		problems.Table1(18, 7),
		problems.RandomSAM(16, 3),
	}
	bodies := make([][]byte, len(mix))
	refs := make([]*seaapi.Solution, len(mix))
	for i, d := range mix {
		bodies[i] = encodeProblem(t, d)
		ref, err := seaapi.Solve(context.Background(), "sea", wrapDiagonal(t, d), httpSolveOptions())
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		refs[i] = ref
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base, srv := startHTTPStack(t, serve.ShardedConfig{
				Shards: shards,
				Server: serve.Config{
					Solver:      "sea",
					MaxInFlight: 2,
					MaxQueue:    64,
					Options:     httpSolveOptions(),
				},
			}, seahttp.Config{})

			const clients, reps = 4, 3
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < reps; r++ {
						for i := range bodies {
							var got matio.Solution
							status, hdr := postJSON(t, base+"/v1/solve", bodies[(g+i)%len(bodies)], &got)
							want := refs[(g+i)%len(bodies)]
							if status != http.StatusOK {
								errCh <- fmt.Errorf("client %d: status %d", g, status)
								return
							}
							if s := hdr.Get("X-Sea-Status"); s != "converged" {
								errCh <- fmt.Errorf("client %d: X-Sea-Status %q", g, s)
								return
							}
							if got.Iterations != want.Iterations || got.Objective != want.Objective {
								errCh <- fmt.Errorf("client %d: iters/objective %d/%g, want %d/%g",
									g, got.Iterations, got.Objective, want.Iterations, want.Objective)
								return
							}
							for k := range want.X {
								if got.X[k] != want.X[k] {
									errCh <- fmt.Errorf("client %d: X[%d] = %b, want %b (not bit-identical)",
										g, k, got.X[k], want.X[k])
									return
								}
							}
							for i2 := range want.S {
								if got.S[i2] != want.S[i2] {
									errCh <- fmt.Errorf("client %d: S[%d] differs", g, i2)
									return
								}
							}
							for j := range want.D {
								if got.D[j] != want.D[j] {
									errCh <- fmt.Errorf("client %d: D[%d] differs", g, j)
									return
								}
							}
						}
					}
					errCh <- nil
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Every distinct shape must have landed on exactly one shard, and
			// the server-side view must account for every request.
			st := srv.Stats()
			if want := uint64(clients * reps * len(bodies)); st.Completed != want {
				t.Errorf("completed %d, want %d", st.Completed, want)
			}
			perShard := srv.ShardStats()
			if len(perShard) != shards {
				t.Fatalf("ShardStats len %d, want %d", len(perShard), shards)
			}
			for i, d := range mix {
				want := srv.ShardFor(d.M, d.N, false)
				for si, ss := range perShard {
					for _, sh := range ss.Shapes {
						if sh.M == d.M && sh.N == d.N && si != want {
							t.Errorf("shape %d (%dx%d) pooled on shard %d, routed to %d", i, d.M, d.N, si, want)
						}
					}
				}
			}
		})
	}
}

// TestE2EHTTPErrorMapping: each failure class maps to its documented status
// and stable machine-readable code (docs/API.md), exercised through the real
// listener.
func TestE2EHTTPErrorMapping(t *testing.T) {
	base, _ := startHTTPStack(t, serve.ShardedConfig{
		Shards: 2,
		Server: serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 4, Options: httpSolveOptions()},
	}, seahttp.Config{MaxBodyBytes: 16 << 10})

	infeasible := *problems.Table1(6, 9)
	s0 := append([]float64(nil), infeasible.S0...)
	s0[0] += 100 // Σs⁰ ≠ Σd⁰: the transportation polytope is empty
	infeasible.S0 = s0

	type errResp struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	cases := []struct {
		name       string
		method     string
		url        string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", "POST", "/v1/solve", []byte("{not json"), http.StatusBadRequest, "invalid-problem"},
		{"dimension overflow", "POST", "/v1/solve", []byte(`{"m":4611686018427387904,"n":4611686018427387904,"x0":[]}`), http.StatusBadRequest, "invalid-problem"},
		{"wrong x0 length", "POST", "/v1/solve", []byte(`{"m":3,"n":3,"x0":[1,2]}`), http.StatusBadRequest, "invalid-problem"},
		{"infeasible totals", "POST", "/v1/solve", encodeProblem(t, &infeasible), http.StatusUnprocessableEntity, "infeasible"},
		{"oversized body", "POST", "/v1/solve", encodeProblem(t, problems.Table1(64, 1)), http.StatusRequestEntityTooLarge, "body-too-large"},
		{"bad timeout", "POST", "/v1/solve?timeout=never", encodeProblem(t, problems.Table1(6, 9)), http.StatusBadRequest, "bad-request"},
		{"unknown job", "GET", "/v1/jobs/j999999", nil, http.StatusNotFound, "unknown-job"},
		{"deadline", "POST", "/v1/solve?timeout=1ns", encodeProblem(t, problems.Table1(12, 24)), http.StatusGatewayTimeout, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.url, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got errResp
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatalf("error envelope: %v", err)
			}
			if resp.StatusCode != tc.wantStatus || got.Code != tc.wantCode {
				t.Errorf("status %d code %q, want %d %q (error: %s)",
					resp.StatusCode, got.Code, tc.wantStatus, tc.wantCode, got.Error)
			}
		})
	}
}

// TestE2EHTTPSaturationMapping: a burst far past the admission envelope must
// come back as clean 200s and 429s — nothing else — with the "saturated"
// code, a Retry-After hint, and the rejections visible in /v1/stats.
func TestE2EHTTPSaturationMapping(t *testing.T) {
	base, srv := startHTTPStack(t, serve.ShardedConfig{
		Shards: 1,
		Server: serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 1, Options: httpSolveOptions()},
	}, seahttp.Config{})

	// A heavy shape whose body spans many socket reads, so the concurrent
	// handlers genuinely overlap inside the admission control (see
	// experiments.HTTPLoadSweep's saturation probe for the full rationale).
	body := encodeProblem(t, problems.RandomSAM(128, 4))

	const burst = 24
	type outcome struct {
		status int
		code   string
		retry  string
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				outcomes[i] = outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var env struct {
				Code string `json:"code"`
			}
			data, _ := io.ReadAll(resp.Body)
			json.Unmarshal(data, &env)
			outcomes[i] = outcome{status: resp.StatusCode, code: env.Code, retry: resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if o.code != "saturated" {
				t.Errorf("request %d: 429 code %q, want \"saturated\"", i, o.code)
			}
			if o.retry != "1" {
				t.Errorf("request %d: Retry-After %q, want \"1\"", i, o.retry)
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, o.status)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed == 0 {
		t.Error("no request was shed: admission control never rejected")
	}
	if st := srv.Stats(); st.Rejected != uint64(shed) {
		t.Errorf("stats.Rejected = %d, HTTP 429s = %d", st.Rejected, shed)
	}
}

// TestE2EHTTPJobLifecycle: the asynchronous path end to end — submit, stream
// the trace, poll the result (bit-identical to the synchronous path), and
// the deterministic 429 when the job store is full.
func TestE2EHTTPJobLifecycle(t *testing.T) {
	base, _ := startHTTPStack(t, serve.ShardedConfig{
		Shards: 2,
		Server: serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 4, Options: httpSolveOptions()},
	}, seahttp.Config{MaxJobs: 1})

	d := problems.Table1(16, 11)
	ref, err := seaapi.Solve(context.Background(), "sea", wrapDiagonal(t, d), httpSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	body := encodeProblem(t, d)

	var job struct {
		ID    string `json:"id"`
		Poll  string `json:"poll"`
		Trace string `json:"trace"`
	}
	status, _ := postJSON(t, base+"/v1/jobs", body, &job)
	if status != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d, job %+v", status, job)
	}

	// The store is at its 1-job cap (running or retained): a second submit
	// must be shed deterministically.
	var env struct {
		Code string `json:"code"`
	}
	if status, _ := postJSON(t, base+"/v1/jobs", body, &env); status != http.StatusTooManyRequests || env.Code != "saturated" {
		t.Fatalf("second submit: status %d code %q, want 429 \"saturated\"", status, env.Code)
	}

	// The trace stream is NDJSON: zero or more event lines, then exactly one
	// closing summary once the job finishes.
	resp, err := http.Get(base + job.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace Content-Type %q", ct)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	var summary struct {
		Done  bool   `json:"done"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if !summary.Done || summary.State != "done" {
		t.Errorf("summary %+v, want done/done", summary)
	}
	for _, line := range lines[:len(lines)-1] {
		var ev struct {
			Iteration int `json:"iteration"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace event %q: %v", line, err)
		}
	}

	// Poll: finished, solution present and bit-identical to the reference.
	var view struct {
		State    string          `json:"state"`
		Events   int             `json:"trace_events"`
		Solution *matio.Solution `json:"solution"`
	}
	if status, _ := getJSON(t, base+job.Poll, &view); status != http.StatusOK {
		t.Fatalf("poll: status %d", status)
	}
	if view.State != "done" || view.Solution == nil {
		t.Fatalf("poll view %+v, want done with a solution", view.State)
	}
	if view.Events == 0 {
		t.Error("no trace events recorded")
	}
	if view.Solution.Iterations != ref.Iterations || view.Solution.Objective != ref.Objective {
		t.Errorf("job solution iters/objective %d/%g, want %d/%g",
			view.Solution.Iterations, view.Solution.Objective, ref.Iterations, ref.Objective)
	}
	for k := range ref.X {
		if view.Solution.X[k] != ref.X[k] {
			t.Fatalf("X[%d] = %b, want %b (not bit-identical)", k, view.Solution.X[k], ref.X[k])
		}
	}
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, data)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestE2EHTTPStats: /v1/stats reflects the merged and per-shard serving
// counters after a known workload.
func TestE2EHTTPStats(t *testing.T) {
	base, _ := startHTTPStack(t, serve.ShardedConfig{
		Shards: 2,
		Server: serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 8, Options: httpSolveOptions()},
	}, seahttp.Config{})

	body := encodeProblem(t, problems.Table1(10, 3))
	const n = 5
	for i := 0; i < n; i++ {
		if status, _ := postJSON(t, base+"/v1/solve", body, nil); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}

	var stats struct {
		Stats struct {
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
		} `json:"stats"`
		Shards []struct {
			Completed uint64 `json:"completed"`
		} `json:"shards"`
		Jobs struct {
			Running  int `json:"running"`
			Retained int `json:"retained"`
		} `json:"jobs"`
	}
	if status, _ := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	if stats.Stats.Completed != n || stats.Stats.Submitted != n {
		t.Errorf("merged stats %+v, want %d submitted and completed", stats.Stats, n)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("per-shard stats len %d, want 2", len(stats.Shards))
	}
	// One shape: all n solves on its owning shard, none on the other.
	var per []uint64
	for _, sh := range stats.Shards {
		per = append(per, sh.Completed)
	}
	if !(per[0] == n && per[1] == 0 || per[0] == 0 && per[1] == n) {
		t.Errorf("per-shard completions %v, want all %d on one shard", per, n)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sea/internal/matio"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
	seahttp "sea/pkg/sea/serve/http"
)

// The http-mixed workload: POST /v1/solve over loopback to an in-process
// seahttp handler over serve.NewSharded, configured as seaserved's defaults.
// Request bodies are Table-1 problems of httpShapes orders, drawn with
// Zipf(httpZipfS) popularity (the smallest order most popular). With more
// shapes than pools some requests miss the shape pools and evict.
var httpShapes = []int{16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}

const (
	httpZipfS     = 1.2
	httpMaxShapes = 8
	// A rate passes a max_rate probe when its p99 stays within
	// httpP99LimitMs, nothing fails, and the backlog does not grow. The
	// limit sits above the p99 of a lightly loaded 2-core host (~6 ms: an
	// order-60 body takes ~1.5 ms to decode, and the load generator shares
	// the cores).
	httpP99LimitMs = 10.0
	httpProbes     = 6
	httpTol        = 9e-15
	// httpCodecReps is how often each body is decoded, validated and its
	// answer encoded for the codec timings; the median counts.
	httpCodecReps = 5
)

// httpFixture is the workload's inputs and the expected answers.
type httpFixture struct {
	bodies  [][]byte
	refs    [][]byte        // expected 200 response bodies
	sols    []*sea.Solution // reference solutions
	cells   []int
	weights []float64 // request-mix probability of each shape

	requests, non200 atomic.Int64
}

// newHTTPFixture encodes each shape's request body and solves it in process
// as the server would (default options, procs 1). The response to every
// request must be byte-identical to the reference's encoding, and so decode
// to a bit-identical solution.
func newHTTPFixture(ctx context.Context, e *env) (*httpFixture, error) {
	f := &httpFixture{}
	var total float64
	for i, n := range httpShapes {
		body, err := encodeProblem(table1(n, newRNG(e.seed, 200+uint64(i))))
		if err != nil {
			return nil, err
		}
		d, err := decodeBody(body)
		if err != nil {
			return nil, fmt.Errorf("reference %d×%d: %w", n, n, err)
		}
		p, err := sea.NewDiagonal(d)
		if err != nil {
			return nil, fmt.Errorf("reference %d×%d: %w", n, n, err)
		}
		sol, err := sea.SolveWith(ctx, p, sea.WithProcs(1))
		e.t.check(verify(p, sol, err, httpTol))
		if err != nil {
			return nil, fmt.Errorf("reference %d×%d: %w", n, n, err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(matio.SolutionFromCore(sol)); err != nil {
			return nil, err
		}
		w := math.Pow(float64(i+1), -httpZipfS)
		total += w
		f.bodies = append(f.bodies, body)
		f.refs = append(f.refs, ref.Bytes())
		f.sols = append(f.sols, sol)
		f.cells = append(f.cells, n*n)
		f.weights = append(f.weights, w)
	}
	for i := range f.weights {
		f.weights[i] /= total
	}
	return f, nil
}

// decodeBody is the transport's decode step: the JSON container to a
// validated core problem, which sea.NewDiagonal then wraps for the registry.
func decodeBody(body []byte) (*sea.DiagonalProblem, error) {
	jp, err := matio.DecodeProblem(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return jp.ToCore()
}

// draws returns a stream of shape indices with the workload's Zipf
// popularity.
func (f *httpFixture) draws(seed, stream uint64) func() int {
	z := rand.NewZipf(newRNG(seed, stream), httpZipfS, 1, uint64(len(f.bodies)-1))
	return func() int { return int(z.Uint64()) }
}

// checkResponse verifies one response.
func (f *httpFixture) checkResponse(shape, status int, body []byte, err error) error {
	f.requests.Add(1)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		f.non200.Add(1)
		return fmt.Errorf("order-%d request: HTTP %d: %s", httpShapes[shape], status, bytes.TrimSpace(body))
	}
	if !bytes.Equal(body, f.refs[shape]) {
		return fmt.Errorf("order-%d request: response differs from the in-process reference solve", httpShapes[shape])
	}
	return nil
}

// httpStack is a running server and its client.
type httpStack struct {
	srv     *serve.ShardedServer
	handler *seahttp.Handler
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	url     string
}

// startStack starts the server as seaserved's defaults configure it (one
// shard, procs 1, limits derived from GOMAXPROCS) and a client with one
// connection. wrap, when non-nil, puts a layer between the handler and the
// server.
func startStack(wrap func(*serve.ShardedServer) seahttp.Backend) (*httpStack, error) {
	srv, err := serve.NewSharded(serve.ShardedConfig{
		Shards: 1,
		Server: serve.Config{MaxShapes: httpMaxShapes, Procs: 1},
	})
	if err != nil {
		return nil, err
	}
	var backend seahttp.Backend = srv
	if wrap != nil {
		backend = wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &httpStack{
		srv:     srv,
		handler: seahttp.New(backend, seahttp.Config{}),
		served:  make(chan struct{}),
		url:     "http://" + ln.Addr().String() + "/v1/solve",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
	}
	st.hs = &http.Server{Handler: st.handler}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return st, nil
}

// close stops the client, the listener and every connection, then the
// handler and the server, and waits for the serving goroutine.
func (st *httpStack) close() {
	st.client.CloseIdleConnections()
	_ = st.hs.Close() // only reports the listener's close error
	<-st.served
	st.handler.Close()
	st.srv.Close()
}

// post sends one request and reads the whole response into buf. A non-empty
// tag names the traced operation the request belongs to.
func (st *httpStack) post(ctx context.Context, body []byte, tag string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tag != "" {
		req.Header.Set("X-Sea-Tenant", tag)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// setupHTTP starts the stack and sends one request per shape, reps times;
// all but the last stack are closed again, after the setup timer stops.
func setupHTTP(ctx context.Context, e *env, f *httpFixture, reps int, wrap func(*serve.ShardedServer) seahttp.Backend) (*httpStack, error) {
	var st *httpStack
	rep := 0
	err := e.timeSetup(reps, func() (func(), error) {
		rep++
		var err error
		if st, err = startStack(wrap); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		var errs []error
		for i, body := range f.bodies {
			status, err := st.post(ctx, body, "", &buf)
			errs = append(errs, f.checkResponse(i, status, buf.Bytes(), err))
		}
		return func() {
			for _, err := range errs {
				e.t.check(err)
			}
			if rep < reps {
				st.close()
			}
		}, nil
	})
	return st, err
}

// httpReq is one closed-loop request's record.
type httpReq struct {
	shape int
	lat   float64 // ms
	end   time.Time
	op    int64 // traced operation, 0 when untraced
}

// closedLoop runs one client for d: it sends its next request only after
// the previous one completed. When traced, every other request is a traced
// operation with an http.request root span.
func (f *httpFixture) closedLoop(ctx context.Context, e *env, st *httpStack, d time.Duration, stream uint64, traced bool) []httpReq {
	draw := f.draws(e.seed, stream)
	var buf bytes.Buffer
	var all []httpReq
	for start := time.Now(); time.Since(start) < d || len(all) == 0; {
		shape := draw()
		var op, root int64
		var tag string
		if traced && len(all)%2 == 0 {
			op, root = e.rec.id(), e.rec.id()
			tag = strconv.FormatInt(op, 10) + "." + strconv.FormatInt(root, 10)
		}
		t0 := time.Now()
		status, err := st.post(ctx, f.bodies[shape], tag, &buf)
		t1 := time.Now()
		if op != 0 {
			e.rec.add(span{Op: op, ID: root, Name: "http.request", Start: e.rec.at(t0), End: e.rec.at(t1)})
		}
		all = append(all, httpReq{shape: shape, lat: ms(t1.Sub(t0)), end: t1, op: op})
		e.t.check(f.checkResponse(shape, status, buf.Bytes(), err))
		e.ref.tick()
	}
	return all
}

// openResult is an open loop's accounting. Latencies count from each
// request's due time, so a stall also delays the requests queued behind it;
// lateness is how long after its due time the generator sent a request.
type openResult struct {
	lat, late  []float64 // ms per request; a failed request's latency is +Inf
	failed     int
	backlogMax int // most requests ever due but not yet sent
	backlogEnd int // requests still unsent when the schedule's window closed
}

// openLoop sends request i at start+sched[i] (sched ascending, within
// window) over one connection, whatever the state of earlier requests: a
// request due while an earlier one is in flight waits, and its latency
// counts the wait.
func openLoop(sched []time.Duration, window time.Duration, do func(i int) error) openResult {
	n := len(sched)
	sent := make([]time.Duration, n)
	done := make([]time.Duration, n)
	errs := make([]error, n)
	start := time.Now()
	for i := range sched {
		if wait := sched[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sent[i] = time.Since(start)
		errs[i] = do(i)
		done[i] = time.Since(start)
	}
	return accountOpen(sched, sent, done, errs, window)
}

// accountOpen computes an open loop's result from each request's due, send
// and completion offsets.
func accountOpen(sched, sent, done []time.Duration, errs []error, window time.Duration) openResult {
	r := openResult{lat: make([]float64, len(sched)), late: make([]float64, len(sched))}
	for i := range sched {
		r.late[i] = ms(sent[i] - sched[i])
		r.lat[i] = ms(done[i] - sched[i])
		if errs[i] != nil {
			r.failed++
			r.lat[i] = math.Inf(1)
		}
		// Requests are sent in schedule order: when request i went out, the
		// ones due by then but not yet sent were i+1 … due−1.
		due := sort.Search(len(sched), func(k int) bool { return sched[k] > sent[i] })
		r.backlogMax = max(r.backlogMax, due-i-1)
		if sent[i] > window {
			r.backlogEnd++
		}
	}
	return r
}

// keepsUp reports whether an open loop met the latency limit with no
// failure and no growing backlog: at most two requests still unsent when the
// window closed. A loop that sent nothing shows nothing.
func (r openResult) keepsUp() bool {
	return len(r.lat) > 0 && r.failed == 0 && percentile(sortedCopy(r.lat), 990) <= httpP99LimitMs && r.backlogEnd <= 2
}

// poisson returns Poisson arrival offsets at rate per second within window.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < window.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openRun runs an open loop of Zipf-drawn requests at rate for window.
func (f *httpFixture) openRun(ctx context.Context, e *env, st *httpStack, rate float64, window time.Duration, stream uint64) openResult {
	sched := poisson(newRNG(e.seed, stream), rate, window)
	draw := f.draws(e.seed, stream+1)
	shapes := make([]int, len(sched))
	for i := range shapes {
		shapes[i] = draw()
	}
	var buf bytes.Buffer
	return openLoop(sched, window, func(i int) error {
		status, err := st.post(ctx, f.bodies[shapes[i]], "", &buf)
		err = f.checkResponse(shapes[i], status, buf.Bytes(), err)
		e.t.check(err)
		return err
	})
}

// bisect returns the highest passing rate among n probes that bisect
// (lo, hi), or 0 when none passes.
func bisect(lo, hi float64, n int, pass func(rate float64) bool) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		mid := (lo + hi) / 2
		if pass(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}

func runHTTP(ctx context.Context, e *env) error {
	f, err := newHTTPFixture(ctx, e)
	if err != nil {
		return err
	}
	st, err := setupHTTP(ctx, e, f, setupReps, nil)
	if err != nil {
		return err
	}
	defer st.close()

	m0 := readMem()
	closed := f.closedLoop(ctx, e, st, e.seconds, 300, false)
	m := readMem().sub(m0)
	lat := make([]float64, len(closed))
	ends := make([]time.Time, len(closed))
	for i, r := range closed {
		lat[i], ends[i] = r.lat, r.end
	}
	e.reportOps(lat, ends, m.bytes)
	return nil
}

// tracedBackend is the serve layer seen from the transport: it times every
// tagged request's Submit as a serve.submit span and records the solve's
// iterations beneath it. Untagged requests pass straight through.
type tracedBackend struct {
	*serve.ShardedServer
	rec *recorder

	mu  sync.Mutex
	obs map[int64]*iterObserver // by operation
}

func (b *tracedBackend) Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error) {
	op, root, ok := parseTag(serve.TenantFromContext(ctx))
	if !ok {
		return b.ShardedServer.Submit(ctx, p, opts)
	}
	obs := &iterObserver{rec: b.rec, op: op, parent: b.rec.id()}
	start := b.rec.now()
	sol, err := b.ShardedServer.SubmitTraced(ctx, p, opts, obs)
	b.rec.add(span{Op: op, ID: obs.parent, Parent: root, Name: "serve.submit", Start: start, End: b.rec.now()})
	b.mu.Lock()
	b.obs[op] = obs
	b.mu.Unlock()
	return sol, err
}

// parseTag reads the "op.root" tag a traced request carries in its tenant
// header, the only per-request value the transport hands to the backend.
func parseTag(tag string) (op, root int64, ok bool) {
	a, b, found := strings.Cut(tag, ".")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	root, err2 := strconv.ParseInt(b, 10, 64)
	return op, root, err1 == nil && err2 == nil
}

// traceHTTP runs, on one stack behind a tracedBackend: an untraced closed
// loop (15% of the run length) for the allocation counts, a closed loop that
// alternates traced and untraced requests (30%), the max-rate bisection
// (45%), and the codec timings.
func traceHTTP(ctx context.Context, e *env) error {
	f, err := newHTTPFixture(ctx, e)
	if err != nil {
		return err
	}
	tb := &tracedBackend{rec: e.rec, obs: map[int64]*iterObserver{}}
	st, err := setupHTTP(ctx, e, f, 1, func(s *serve.ShardedServer) seahttp.Backend {
		tb.ShardedServer = s
		return tb
	})
	if err != nil {
		return err
	}
	defer st.close()

	m0 := readMem()
	plain := f.closedLoop(ctx, e, st, e.share(0.15), 500, false)
	m := readMem().sub(m0)
	n := len(plain)
	e.t.set("core.allocs_per_solve", float64(m.mallocs)/float64(n), n)
	e.t.set("runtime.gc_per_op", float64(m.gcs)/float64(n), n)

	s0 := st.srv.Stats()
	mixed := f.closedLoop(ctx, e, st, e.share(0.3), 600, true)
	s1 := st.srv.Stats()
	if err := reportTracedHTTP(e, f, tb, mixed, s0, s1); err != nil {
		return err
	}

	var lat []float64
	for _, r := range mixed {
		lat = append(lat, r.lat)
	}
	capacity := 1000 / mean(lat)
	var best *openResult
	probe := 0
	rate := bisect(0, 1.2*capacity, httpProbes, func(rate float64) bool {
		probe++
		r := f.openRun(ctx, e, st, rate, e.share(0.45/httpProbes), 700+10*uint64(probe))
		ok := r.keepsUp()
		e.ref.sample()
		s := sortedCopy(r.lat)
		fmt.Fprintf(e.log, "bench: http-mixed: probe %.0f req/s: n=%d p50=%.3g p90=%.3g p99=%.3g ms, late p99=%.3g ms, backlog max=%d end=%d, failed=%d, keeps up=%v\n",
			rate, len(s), percentile(s, 500), percentile(s, 900), percentile(s, 990), percentile(sortedCopy(r.late), 990), r.backlogMax, r.backlogEnd, r.failed, ok)
		if ok || best == nil {
			best = &r
		}
		return ok
	})
	e.t.set("http.max_rate_rps", rate, httpProbes)
	if len(best.late) > 0 { // a short run's low-rate probe can schedule nothing
		e.t.set("loadgen.late_p99_ms", percentile(sortedCopy(best.late), 990), len(best.late))
	}
	e.t.set("loadgen.backlog_max", float64(best.backlogMax), len(best.late))
	e.t.set("http.non200_frac", float64(f.non200.Load())/float64(f.requests.Load()), int(f.requests.Load()))

	reps := httpCodecReps
	if e.smoke {
		reps = 1
	}
	return f.reportCodec(e, reps)
}

// reportTracedHTTP derives the http, serve, core and equilibrate metrics of
// the mixed closed loop: span times are means over its traced requests, the
// server's Stats deltas means over all of its requests.
func reportTracedHTTP(e *env, f *httpFixture, tb *tracedBackend, mixed []httpReq, s0, s1 serve.Stats) error {
	times := aggregate(e.rec.spans)
	var self, submit, iter, row, col, check, bytesIn, iters, equil, ops, sweeps float64
	var tracedLat, plainLat []float64
	for _, r := range mixed {
		if r.op == 0 {
			plainLat = append(plainLat, r.lat)
			continue
		}
		tracedLat = append(tracedLat, r.lat)
		t, obs := times[r.op], tb.obs[r.op]
		if t == nil || obs == nil {
			return fmt.Errorf("traced request %d has no serve.submit span", r.op)
		}
		self += float64(t.self["http.request"])
		submit += float64(t.dur["serve.submit"])
		iter += float64(t.dur["core.iteration"])
		row += float64(t.dur["core.row"])
		col += float64(t.dur["core.col"])
		check += float64(t.dur["core.check"])
		bytesIn += float64(len(f.bodies[r.shape]))
		iters += float64(obs.iterations)
		equil += float64(obs.equil)
		ops += float64(obs.ops)
		sweeps += 2 * float64(obs.iterations*f.cells[r.shape])
	}
	n := len(tracedLat)
	k := float64(n)
	all := float64(s1.Submitted - s0.Submitted)
	hits, misses := float64(s1.ShapeHits-s0.ShapeHits), float64(s1.ShapeMisses-s0.ShapeMisses)
	wait := (totalNs(s1.QueueWait.Count, s1.QueueWait.Mean) - totalNs(s0.QueueWait.Count, s0.QueueWait.Mean)) / all
	solve := (totalNs(s1.Solve.Count, s1.Solve.Mean) - totalNs(s0.Solve.Count, s0.Solve.Mean)) / all

	e.t.set("http.self_us", self/k/1e3, n)
	e.t.set("http.req_bytes", bytesIn/k, n)
	e.t.set("serve.submit_us", submit/k/1e3, n)
	e.t.set("serve.queue_wait_us", wait/1e3, int(all))
	e.t.set("serve.solve_us", solve/1e3, int(all))
	e.t.set("serve.self_us", (submit/k-wait-solve)/1e3, n)
	e.t.set("serve.shape_hit_rate", ratio(hits, hits+misses), int(all))
	e.t.set("serve.evictions_per_kreq", ratio(1000*float64(s1.ArenasEvicted-s0.ArenasEvicted), all), int(all))
	e.t.set("serve.rejected_frac", ratio(float64(s1.Rejected-s0.Rejected), all), int(all))
	e.t.set("core.setup_ms", (solve-iter/k)/1e6, n)
	e.t.set("core.row_ms", row/k/1e6, n)
	e.t.set("core.col_ms", col/k/1e6, n)
	e.t.set("core.check_ms", check/k/1e6, n)
	e.t.set("core.outer_iterations", iters/k, n)
	e.t.set("core.trace_overhead", median(tracedLat)/median(plainLat), n)
	e.t.set("equilibrate.count_per_solve", equil/k, n)
	e.t.set("equilibrate.ops_per_solve", ops/k, n)
	e.t.set("equilibrate.ns_per_equil", ratio(row+col, equil), n)
	e.t.set("equilibrate.ns_per_cell_sweep", ratio(row+col, sweeps), n)
	return nil
}

// totalNs is a latency aggregate's total time: its count times its mean.
func totalNs(count int64, mean time.Duration) float64 { return float64(count) * float64(mean) }

// reportCodec times the transport's own work on each shape's request: decode
// (JSON container to a validated core problem), validate (sea.NewDiagonal)
// and encode (the answer's JSON), weighted by the request mix.
func (f *httpFixture) reportCodec(e *env, reps int) error {
	var decode, validate, encode float64
	for i, body := range f.bodies {
		var dec, val, enc []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			d, err := decodeBody(body)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := sea.NewDiagonal(d); err != nil {
				return err
			}
			t2 := time.Now()
			if err := json.NewEncoder(io.Discard).Encode(matio.SolutionFromCore(f.sols[i])); err != nil {
				return err
			}
			t3 := time.Now()
			dec = append(dec, float64(t1.Sub(t0)))
			val = append(val, float64(t2.Sub(t1)))
			enc = append(enc, float64(t3.Sub(t2)))
		}
		decode += f.weights[i] * median(dec)
		validate += f.weights[i] * median(val)
		encode += f.weights[i] * median(enc)
	}
	k := len(f.bodies) * reps
	e.t.set("http.decode_us", decode/1e3, k)
	e.t.set("http.validate_us", validate/1e3, k)
	e.t.set("http.encode_us", encode/1e3, k)
	return nil
}

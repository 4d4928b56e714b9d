package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
	seahttp "sea/pkg/sea/serve/http"
)

// The HTTP load generator's fixed geometry. The problem mix is deliberately
// small (orders 16, 24, 32): at these sizes a solve is microseconds, so the
// measurement exercises the transport, routing, admission, and arena-pool
// layers rather than the solver's arithmetic — which the perf suite's other
// records already cover. The shapes are NOT scaled by Config.Scale; Scale
// controls the request count instead, so a CI run and a full run measure the
// same per-request path at different durations.
var httpLoadSizes = [...]int{16, 24, 32}

// httpLoadShards is the shard-count sweep, one measurement per count.
var httpLoadShards = [...]int{1, 2, 4}

const (
	httpLoadRequests    = 100000 // closed-loop requests per shard count at Scale 1
	httpLoadMinRequests = 2000
	httpLoadConns       = 8
	httpLoadMaxInFlight = 2
	// httpLoadWarmupRounds re-solves every prewarmed arena this many times
	// so the kernel warm starts settle before the measured phase.
	httpLoadWarmupRounds = 3
	// The saturation probe's geometry: a burst of httpOverloadBurst
	// simultaneous arrivals of one SAM instance of order httpOverloadSize
	// against a probe server whose admission envelope is deliberately small
	// (MaxInFlight httpLoadMaxInFlight, queue httpOverloadQueue). The shape
	// is heavier than the throughput mix on purpose: its body spans many
	// socket reads, so handler goroutines block, yield, and genuinely
	// overlap inside the admission control even on one core — with
	// microsecond requests each completes within a single scheduler slice,
	// the queue never builds, and saturation is unobservable.
	httpOverloadSize  = 128
	httpOverloadQueue = 2
	httpOverloadBurst = 30
)

// HTTPLoadResult is one measurement of the HTTP front end at a fixed shard
// count: a closed-loop phase (Conns clients, back-to-back requests — the
// sustained-throughput number) followed by an open-loop saturation probe (a
// burst of arrivals independent of completions — the overload behavior).
type HTTPLoadResult struct {
	Shards   int
	Conns    int
	Sizes    []int // shape orders in the throughput mix (square instances)
	Requests int   // closed-loop requests (excludes warm-up)
	Wall     time.Duration

	// Closed-loop latency distribution and throughput.
	RequestsPerSec float64
	P50, P90, P99  time.Duration
	Max            time.Duration
	// HitRate is the measured phase's shape-pool hit fraction across shards
	// (1.0 once the warm-up filled every owning shard's pool).
	HitRate float64

	// Saturation probe: OverloadRequests simultaneous arrivals of one heavy
	// shape (order OverloadSize) against a probe server with a small
	// admission envelope, several times its capacity. Rejected counts 429
	// responses — the admission control shedding the excess instead of
	// queueing without bound; OverloadP99 is the accepted requests' p99
	// under that pressure. Because routing is by shape, the whole burst
	// lands on one shard regardless of the shard count — hot-shape overload
	// saturates (and is shed by) only the owning shard, while the rest of
	// the fleet stays available.
	OverloadSize     int
	OverloadRequests int
	Rejected         int
	RejectedFraction float64
	OverloadP99      time.Duration

	// Stats is the sharded server's final merged snapshot (cumulative,
	// including warm-up and the saturation probe).
	Stats serve.Stats
}

// HTTPLoadSweep measures the HTTP front end (pkg/sea/serve/http over a
// sharded serve.ShardedServer on a loopback listener) at each shard count in
// {1, 2, 4}. The closed loop issues 100k requests scaled by cfg.Scale,
// floored at 2000 so even the CI scale produces a stable distribution. It is
// the data source for seabench -serve and the "serve/http" BENCH_sea.json
// records.
func HTTPLoadSweep(ctx context.Context, cfg Config) ([]HTTPLoadResult, error) {
	s := cfg.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	requests := max(int(httpLoadRequests*s), httpLoadMinRequests)
	var out []HTTPLoadResult
	for _, shards := range httpLoadShards {
		r, err := httpLoadOne(ctx, cfg, shards, httpLoadConns, requests)
		if err != nil {
			return out, fmt.Errorf("http load shards=%d: %w", shards, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// httpLoadOne runs both phases against a fresh sharded server + HTTP stack.
func httpLoadOne(ctx context.Context, cfg Config, shards, conns, requests int) (HTTPLoadResult, error) {
	// Pre-encode the request bodies once: the generator measures the server,
	// so client-side encoding stays out of the loop.
	sizes := append([]int(nil), httpLoadSizes[:]...)
	bodies := make([][]byte, len(sizes))
	probs := make([]*sea.Problem, len(sizes))
	for i, n := range sizes {
		d := problems.Table1(n, uint64(n))
		var buf bytes.Buffer
		if err := matio.WriteProblemJSON(&buf, d); err != nil {
			return HTTPLoadResult{}, fmt.Errorf("encode %dx%d: %w", n, n, err)
		}
		bodies[i] = buf.Bytes()
		p, err := sea.NewDiagonal(d)
		if err != nil {
			return HTTPLoadResult{}, fmt.Errorf("problem %dx%d: %w", n, n, err)
		}
		probs[i] = p
	}

	o := sea.DefaultOptions()
	o.Criterion = sea.MaxAbsDelta
	o.Epsilon = cfg.eps(0.01)
	o.MaxIterations = 500000
	srv, err := serve.NewSharded(serve.ShardedConfig{
		Shards: shards,
		Server: serve.Config{
			Solver:      "sea",
			MaxInFlight: httpLoadMaxInFlight,
			// Sized so the closed loop (at most conns outstanding) is never
			// rejected; the saturation probe runs against its own server.
			MaxQueue:  conns,
			MaxShapes: len(probs),
			Options:   o,
		},
	})
	if err != nil {
		return HTTPLoadResult{}, err
	}
	defer srv.Close()
	handler := seahttp.New(srv, seahttp.Config{})
	defer handler.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HTTPLoadResult{}, err
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns * 2,
	}}
	defer client.CloseIdleConnections()

	// Warm-up: provision every shape's owning shard to its in-flight bound,
	// then one HTTP round per shape to settle connections and codec paths.
	for round := 0; round < httpLoadWarmupRounds; round++ {
		for _, p := range probs {
			if err := srv.Prewarm(ctx, p, httpLoadMaxInFlight); err != nil {
				return HTTPLoadResult{}, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	for i := range bodies {
		if status, err := postSolve(ctx, client, base, bodies[i]); err != nil || status != http.StatusOK {
			return HTTPLoadResult{}, fmt.Errorf("warm-up request %d: status %d, err %v", i, status, err)
		}
	}
	warm := srv.Stats()

	// Closed loop: conns workers, each issuing its share back-to-back. Every
	// latency is recorded; the distribution is exact, not sampled.
	perWorker := requests / conns
	requests = perWorker * conns
	lats := make([][]int64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				body := bodies[(g+i)%len(bodies)]
				t0 := time.Now()
				status, err := postSolve(ctx, client, base, body)
				if err != nil {
					errs[g] = err
					return
				}
				if status != http.StatusOK {
					errs[g] = fmt.Errorf("request %d: unexpected status %d", i, status)
					return
				}
				mine = append(mine, time.Since(t0).Nanoseconds())
			}
			lats[g] = mine
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return HTTPLoadResult{}, err
		}
	}
	var merged []int64
	for _, l := range lats {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })

	st := srv.Stats()
	hits := st.ShapeHits - warm.ShapeHits
	misses := st.ShapeMisses - warm.ShapeMisses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	res := HTTPLoadResult{
		Shards:         shards,
		Conns:          conns,
		Sizes:          sizes,
		Requests:       requests,
		Wall:           wall,
		RequestsPerSec: float64(requests) / wall.Seconds(),
		P50:            quantileNs(merged, 0.50),
		P90:            quantileNs(merged, 0.90),
		P99:            quantileNs(merged, 0.99),
		Max:            quantileNs(merged, 1),
		HitRate:        hitRate,
	}

	res.Stats = srv.Stats()

	// Saturation probe: a burst of simultaneous arrivals of one heavy shape,
	// independent of completions (the open-loop limiting case), against a
	// second server at the same shard count whose admission envelope is
	// deliberately small — the burst is several times the owning shard's
	// capacity, so the bounded queue must overflow and the excess must come
	// back as 429s. The probe's client bounds its connection pool just past
	// the burst; unbounded dialing would park the excess in the kernel's
	// accept backlog — an invisible unbounded queue in front of the
	// admission control — and the probe would measure connection-setup
	// starvation, not the server's shedding.
	overD := problems.RandomSAM(httpOverloadSize, 4)
	var overBuf bytes.Buffer
	if err := matio.WriteProblemJSON(&overBuf, overD); err != nil {
		return HTTPLoadResult{}, fmt.Errorf("overload shape: %w", err)
	}
	overP, err := sea.NewDiagonal(overD)
	if err != nil {
		return HTTPLoadResult{}, fmt.Errorf("overload shape: %w", err)
	}
	overSrv, err := serve.NewSharded(serve.ShardedConfig{
		Shards: shards,
		Server: serve.Config{
			Solver:      "sea",
			MaxInFlight: httpLoadMaxInFlight,
			MaxQueue:    httpOverloadQueue,
			MaxShapes:   1,
			Options:     o,
		},
	})
	if err != nil {
		return HTTPLoadResult{}, fmt.Errorf("probe server: %w", err)
	}
	defer overSrv.Close()
	overHandler := seahttp.New(overSrv, seahttp.Config{})
	defer overHandler.Close()
	overLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HTTPLoadResult{}, err
	}
	overHTTP := &http.Server{Handler: overHandler}
	go overHTTP.Serve(overLn)
	defer overHTTP.Close()
	overBase := "http://" + overLn.Addr().String()
	if err := overSrv.Prewarm(ctx, overP, httpLoadMaxInFlight); err != nil {
		return HTTPLoadResult{}, fmt.Errorf("overload warm-up: %w", err)
	}

	overClient := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     httpOverloadBurst + 2,
		MaxIdleConnsPerHost: httpOverloadBurst + 2,
	}}
	defer overClient.CloseIdleConnections()
	var rejected, failed atomic.Int64
	overLats := make([]int64, httpOverloadBurst) // -1 = not accepted
	var owg sync.WaitGroup
	for i := 0; i < httpOverloadBurst; i++ {
		owg.Add(1)
		go func(i int) {
			defer owg.Done()
			overLats[i] = -1
			t0 := time.Now()
			status, err := postSolve(ctx, overClient, overBase, overBuf.Bytes())
			switch {
			case err != nil:
				failed.Add(1)
			case status == http.StatusTooManyRequests:
				rejected.Add(1)
			case status == http.StatusOK:
				overLats[i] = time.Since(t0).Nanoseconds()
			default:
				failed.Add(1)
			}
		}(i)
	}
	owg.Wait()
	if n := failed.Load(); n > 0 {
		return HTTPLoadResult{}, fmt.Errorf("saturation probe: %d requests failed with non-429 errors", n)
	}
	accepted := overLats[:0]
	for _, ns := range overLats {
		if ns >= 0 {
			accepted = append(accepted, ns)
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	res.OverloadSize = httpOverloadSize
	res.OverloadRequests = httpOverloadBurst
	res.Rejected = int(rejected.Load())
	res.RejectedFraction = float64(res.Rejected) / float64(httpOverloadBurst)
	res.OverloadP99 = quantileNs(accepted, 0.99)
	return res, nil
}

// postSolve issues one POST /v1/solve and fully drains the response so the
// connection returns to the keep-alive pool.
func postSolve(ctx context.Context, client *http.Client, base string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// quantileNs reads the q-quantile from ascending nanosecond samples.
func quantileNs(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return time.Duration(sorted[i])
}

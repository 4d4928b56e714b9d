package seahttp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/internal/testutil"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// newStack starts a real one-shard server behind a Handler on a loopback listener.
// The caller shuts the pieces down itself when the test exercises shutdown
// ordering; the registered cleanups are idempotent backstops.
func newStack(t *testing.T, cfg serve.Config, hcfg Config) (base string, srv *serve.ShardedServer, h *Handler, httpSrv *http.Server) {
	t.Helper()
	srv, err := serve.NewSharded(serve.ShardedConfig{Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	h = New(srv, hcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	httpSrv = &http.Server{Handler: h}
	go httpSrv.Serve(ln)
	t.Cleanup(func() {
		httpSrv.Close()
		h.Close()
		srv.Close()
	})
	return "http://" + ln.Addr().String(), srv, h, httpSrv
}

// slowOptions returns solve options that run effectively forever: an
// unreachable tolerance under the max-|Δ| criterion with an enormous
// iteration budget, so the solve ends only by cancellation (or by Δ
// underflowing to zero after far longer than any test step here).
func slowOptions() *sea.Options {
	o := sea.DefaultOptions()
	o.Criterion = sea.MaxAbsDelta
	o.Epsilon = 1e-300
	o.MaxIterations = 1 << 40
	return o
}

func problemBody(t *testing.T, d *sea.DiagonalProblem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matio.WriteProblemJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCloseDrainsInFlightTraceStream: Close while a chunked trace response
// is mid-stream must cancel the job, terminate the stream, and wait for
// both the job goroutine and the stream handler — with nothing left running
// afterwards. This is the shutdown path a seaserved SIGTERM takes.
func TestCloseDrainsInFlightTraceStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	base, srv, h, httpSrv := newStack(t,
		serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 2, Options: slowOptions()},
		Config{})

	var job struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader(problemBody(t, problems.RandomSAM(48, 9))))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Attach to the stream and block until the first event line arrives, so
	// Close provably races an in-flight chunked response.
	stream, err := http.Get(base + job.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatalf("trace stream ended before any event: %v", sc.Err())
	}
	firstLine := sc.Text()
	if !strings.Contains(firstLine, `"iteration"`) {
		t.Fatalf("first stream line is not a trace event: %s", firstLine)
	}

	// Close with the stream open. It must return on its own (the drain
	// barrier), within the watchdog.
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Handler.Close did not drain the in-flight trace stream")
	}

	// The server side has terminated the stream; reading to EOF must finish
	// and the stream's tail must be intact NDJSON ending in a summary line.
	rest, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatalf("reading stream tail after Close: %v", err)
	}
	all := firstLine + "\n" + string(rest)
	lines := strings.Split(strings.TrimSpace(all), "\n")
	var summary struct {
		Done  *bool  `json:"done"`
		State string `json:"state"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &summary); err != nil {
		t.Fatalf("stream tail is not clean NDJSON, last line %q: %v", last, err)
	}
	if summary.Done == nil {
		t.Errorf("stream did not end with a summary line: %q", last)
	}

	// The job's goroutine finished too: its state moved past running.
	if j := h.jobs.get(job.ID); j != nil {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == jobRunning {
			t.Errorf("job still running after Close")
		}
	}

	// New requests are refused with the documented code.
	resp2, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var envelope struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusServiceUnavailable || envelope.Code != "closed" {
		t.Errorf("post-Close request: status %d code %q, want 503 \"closed\"", resp2.StatusCode, envelope.Code)
	}

	httpSrv.Close()
	srv.Close()
}

// TestCloseIdempotentAndConcurrent: any number of concurrent Close calls
// return, exactly one doing the work.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, srv, h, httpSrv := newStack(t,
		serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 2},
		Config{})
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		go func() {
			h.Close()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent Close hung")
		}
	}
	httpSrv.Close()
	srv.Close()
}

// TestCloseCancelsRunningJob: a running job's solve observes the base
// context's cancellation and finishes; polls afterwards see a terminal
// state rather than a job stuck in running.
func TestCloseCancelsRunningJob(t *testing.T) {
	testutil.CheckGoroutines(t)
	base, srv, h, httpSrv := newStack(t,
		serve.Config{Solver: "sea", MaxInFlight: 1, MaxQueue: 2, Options: slowOptions()},
		Config{})

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader(problemBody(t, problems.RandomSAM(48, 3))))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	h.Close()

	j := h.jobs.get(job.ID)
	if j == nil {
		t.Fatal("job vanished")
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == jobRunning {
		t.Errorf("job state %q after Close, want a terminal state", state)
	}

	httpSrv.Close()
	srv.Close()
}

package seahttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/pkg/sea/serve"
)

// TestSolvePrecondQueryParam: ?precondition= on the synchronous path must
// run the preconditioning stage (visible as precond_ns on the wire), and an
// unknown value (including the retired "sinkhorn") must fail with 400 before
// any solve.
func TestSolvePrecondQueryParam(t *testing.T) {
	base, _, _, _ := newStack(t, serve.Config{MaxInFlight: 2}, Config{})
	body := problemBody(t, problems.RandomSAM(24, 5))

	resp, err := http.Post(base+"/v1/solve?precondition=scale", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sol matio.Solution
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if sol.Status != "converged" {
		t.Fatalf("status %q", sol.Status)
	}
	if sol.PrecondNs <= 0 {
		t.Fatalf("precond_ns = %d, want > 0", sol.PrecondNs)
	}

	for _, v := range []string{"bogus", "sinkhorn"} {
		bad, err := http.Post(base+"/v1/solve?precondition="+v, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Fatalf("precondition=%s: status %d, want 400", v, bad.StatusCode)
		}
	}
}

// TestJobPrecondQueryParam: the asynchronous path honors the same query
// parameter; the polled result carries the stage's wall time.
func TestJobPrecondQueryParam(t *testing.T) {
	base, _, _, _ := newStack(t, serve.Config{MaxInFlight: 2}, Config{})
	body := problemBody(t, problems.RandomSAM(24, 6))

	resp, err := http.Post(base+"/v1/jobs?precondition=scale", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		ID   string `json:"id"`
		Poll string `json:"poll"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		poll, err := http.Get(base + ref.Poll)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			State    string          `json:"state"`
			Solution *matio.Solution `json:"solution"`
		}
		err = json.NewDecoder(poll.Body).Decode(&view)
		poll.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.State == "done" {
			if view.Solution == nil || view.Solution.PrecondNs <= 0 {
				t.Fatalf("job solution = %+v, want precond_ns > 0", view.Solution)
			}
			return
		}
		if view.State == "failed" {
			t.Fatalf("job failed: %+v", view)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q at deadline", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

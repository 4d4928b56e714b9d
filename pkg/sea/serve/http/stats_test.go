package seahttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sea/internal/problems"
	"sea/pkg/sea/serve"
)

// wrappedBackend is a Backend that decorates another one, as middleware
// does: only the interface's methods reach the Handler.
type wrappedBackend struct{ Backend }

// TestStatsReportsEveryShard: GET /v1/stats carries a shards array with one
// entry per shard, whose counters sum to the merged snapshot, whether the
// Handler fronts the server itself or a wrapper around it.
func TestStatsReportsEveryShard(t *testing.T) {
	body := problemBody(t, problems.RandomSAM(12, 3))
	for _, shards := range []int{1, 2} {
		srv, err := serve.NewSharded(serve.ShardedConfig{Shards: shards, Server: serve.Config{MaxInFlight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for name, b := range map[string]Backend{"server": srv, "wrapped": wrappedBackend{srv}} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				h := New(b, Config{})
				defer h.Close()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("solve: status %d: %s", rec.Code, rec.Body)
				}

				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("stats: status %d", rec.Code)
				}
				var got statsResponse
				if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
					t.Fatal(err)
				}
				if len(got.Shards) != shards {
					t.Fatalf("%d per-shard entries, want %d", len(got.Shards), shards)
				}
				var submitted uint64
				for _, st := range got.Shards {
					submitted += st.Submitted
				}
				if submitted != got.Stats.Submitted || submitted == 0 {
					t.Fatalf("per-shard submitted sum %d, merged %d", submitted, got.Stats.Submitted)
				}
			})
		}
	}
}

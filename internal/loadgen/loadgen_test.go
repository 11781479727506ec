package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/serve"
)

var testDomains = []string{"a.example", "b.example", "c.example", "d.example"}

// okHandler answers every score GET with a fixed JSON document.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"domain":"x","score":1,"label":1}`)
	})
}

// TestRunCounts pins the request-budget mode: exactly Requests logical
// requests, all OK, one domain each, percentiles populated.
func TestRunCounts(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Domains:  testDomains,
		Workers:  4,
		Requests: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 50 || rep.OK != 50 || rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Domains != 50 {
		t.Fatalf("domains = %d, want 50", rep.Domains)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("percentiles: p50 %v p99 %v", rep.P50, rep.P99)
	}
	if rep.ReqPerSec <= 0 {
		t.Fatalf("req/s = %v", rep.ReqPerSec)
	}
}

// TestBatchNDJSON drives the batch+NDJSON path against a handler that
// decodes the batch body and streams a well-formed NDJSON response;
// Domains must come from counting the streamed lines, and the verdict
// sources on the enriched lines must land in the report's tallies.
func TestBatchNDJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/score/batch" {
			t.Errorf("path %q", r.URL.Path)
		}
		if got := r.Header.Get("Accept"); got != serve.NDJSONContentType {
			t.Errorf("Accept %q", got)
		}
		var req serve.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding batch: %v", err)
		}
		w.Header().Set("Content-Type", serve.NDJSONContentType)
		fmt.Fprintln(w, `{"fingerprint":"test"}`)
		for i, d := range req.Domains {
			switch i {
			case 0:
				fmt.Fprintf(w, `{"domain":%q,"score":0.5,"label":1,"known":false,"confidence":0.4,"source":"foldin"}`+"\n", d)
			case 1:
				fmt.Fprintf(w, `{"domain":%q,"score":0.5,"label":1,"known":false,"confidence":0.3,"source":"knn"}`+"\n", d)
			case 2:
				fmt.Fprintf(w, `{"domain":%q,"score":0,"label":0,"known":false,"confidence":0}`+"\n", d)
			default:
				fmt.Fprintf(w, `{"domain":%q,"score":0.5,"label":1,"known":true,"confidence":1,"source":"model"}`+"\n", d)
			}
		}
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Domains:  testDomains,
		Workers:  2,
		Requests: 10,
		Batch:    8,
		NDJSON:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 10 || rep.Errors != 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Domains != 80 {
		t.Fatalf("domains = %d, want 80 (10 batches × 8 streamed lines)", rep.Domains)
	}
	if rep.Model != 50 || rep.Foldin != 10 || rep.KNN != 10 {
		t.Fatalf("source tallies model/foldin/knn = %d/%d/%d, want 50/10/10",
			rep.Model, rep.Foldin, rep.KNN)
	}
}

// TestShedRetry checks the 503 contract: shed responses are counted,
// retried with backoff, and succeed without registering errors when
// capacity returns.
func TestShedRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"server at capacity"}`)
			return
		}
		fmt.Fprintln(w, `{"domain":"x","score":1,"label":1}`)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Domains:  testDomains,
		Workers:  1,
		Requests: 5,
		Retries:  3,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 5 || rep.Errors != 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Shed != 2 || rep.Retries != 2 {
		t.Fatalf("shed %d retries %d, want 2 and 2", rep.Shed, rep.Retries)
	}
}

// TestDefinitiveErrorNoRetry: a non-503 error status fails immediately
// (retrying a 404 cannot help) and surfaces in FirstError.
func TestDefinitiveErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Domains:  testDomains,
		Workers:  1,
		Requests: 3,
		Retries:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 3 || rep.OK != 0 || rep.Retries != 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts for 3 definitive failures", calls.Load())
	}
	if !strings.Contains(rep.FirstError, "HTTP 404") {
		t.Fatalf("FirstError %q", rep.FirstError)
	}
}

// TestPacing checks the token bucket holds offered load near
// TargetQPS. Bounds are deliberately loose: the assertion is "paced,
// not closed-loop", not a timing benchmark.
func TestPacing(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:   srv.URL,
		Domains:   testDomains,
		Workers:   4,
		TargetQPS: 200,
		Duration:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unpaced, 4 workers on loopback would do thousands; 200 QPS over
	// 0.3s should land near 60.
	if rep.Requests < 20 || rep.Requests > 150 {
		t.Fatalf("paced run made %d requests in 300ms at 200 QPS", rep.Requests)
	}
}

// TestConfigValidation: the config errors a caller can hit.
func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Domains: testDomains, Duration: time.Second}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: time.Second}); err == nil {
		t.Error("missing domains accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Domains: testDomains}); err == nil {
		t.Error("missing Duration and Requests accepted")
	}
}

// TestBenchJSON checks the report renders in the BENCH_*.json schema.
func TestBenchJSON(t *testing.T) {
	rep := Report{
		Requests: 100, OK: 99, Errors: 1, Shed: 2,
		Domains: 1600, Elapsed: time.Second,
		P50: 2 * time.Millisecond, P90: 5 * time.Millisecond, P99: 9 * time.Millisecond,
		ReqPerSec: 100, DomainsPerSec: 1600,
	}
	out, err := rep.BenchJSON("BenchmarkLoadgenBatch")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Iterations int64              `json:"iterations"`
		NsPerOp    float64            `json:"ns_per_op"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	got, ok := doc["BenchmarkLoadgenBatch"]
	if !ok {
		t.Fatalf("missing benchmark key in %s", out)
	}
	if got.Iterations != 100 || got.NsPerOp != float64(2*time.Millisecond) {
		t.Fatalf("parsed %+v", got)
	}
	for _, key := range []string{"req/sec", "domains/sec", "p50_ms", "p99_ms", "errors", "shed"} {
		if _, ok := got.Metrics[key]; !ok {
			t.Errorf("metrics missing %q in %s", key, out)
		}
	}
	if got.Metrics["domains/sec"] != 1600 {
		t.Errorf("domains/sec = %v", got.Metrics["domains/sec"])
	}
}

// TestBackoffJitterBounds pins the retry schedule contract: attempt n
// waits in [d/2, d) for d = Backoff·2ⁿ capped at MaxBackoff, and the
// draws actually vary (jitter, not a fixed fraction).
func TestBackoffJitterBounds(t *testing.T) {
	l := &loader{cfg: Config{
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond,
	}.withDefaults()}
	rng := mathx.NewRNG(7)
	distinct := make(map[time.Duration]bool)
	for attempt := 0; attempt < 12; attempt++ {
		d := l.cfg.Backoff << uint(attempt)
		if d <= 0 || d > l.cfg.MaxBackoff {
			d = l.cfg.MaxBackoff
		}
		for draw := 0; draw < 8; draw++ {
			got := l.backoffFor(attempt, rng)
			if got < d/2 || got >= d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, got, d/2, d)
			}
			distinct[got] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct draws across 96 backoffs; jitter missing", len(distinct))
	}
}

// TestCancelledContextStopsRetrying: once the run context is
// cancelled, a shed response is not retried — the worker returns
// without sleeping out its backoff budget, and the unfinished request
// counts neither OK nor error. The stub transport delivers a real 503
// and cancels the run in the same instant, pinning the exact
// shed-then-cancelled window.
func TestCancelledContextStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		calls.Add(1)
		cancel() // run dies while the daemon is shedding
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader(`{"error":"server at capacity"}`)),
			Request:    r,
		}, nil
	})}
	start := time.Now()
	rep, err := Run(ctx, Config{
		BaseURL:  "http://stub.invalid",
		Domains:  testDomains,
		Workers:  1,
		Requests: 5,
		Retries:  1000,
		Backoff:  time.Hour, // a single honored backoff would hang the test
		Client:   client,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; cancelled context did not stop the retry loop", elapsed)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d attempts after cancellation, want 1", calls.Load())
	}
	if rep.OK != 0 || rep.Errors != 0 || rep.Shed != 1 || rep.Retries != 0 {
		t.Fatalf("counts after cancelled retry: %+v", rep)
	}
}

// rtFunc adapts a function to http.RoundTripper for stub transports.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// tinyModel builds a persisted model over a hand-crafted trace small
// enough to train in milliseconds even under the race detector:
// 8 domains with overlapping host, IP, and minute sets so every view
// has structure. Different seeds yield different fingerprints and
// decision values, which the reload tests use to tell generations
// apart.
func tinyModel(tb testing.TB, seed uint64) []byte {
	tb.Helper()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(core.Config{
		Start:        start,
		Days:         1,
		EmbedDim:     4,
		EmbedSamples: 20_000,
		Seed:         seed,
		Workers:      1,
	})
	for i := 0; i < 8; i++ {
		for h := 0; h < 3; h++ {
			for m := 0; m < 3; m++ {
				det.Consume(pipeline.Input{
					Time:     start.Add(time.Duration(2*i+m) * time.Minute),
					ClientIP: fmt.Sprintf("10.0.0.%d", (i+h)%10),
					QName:    fmt.Sprintf("www.dom%d.com", i),
					Answers:  []string{fmt.Sprintf("198.51.100.%d", (i+m)%8)},
				})
			}
		}
	}
	if err := det.BuildModel(); err != nil {
		tb.Fatal(err)
	}
	domains, err := det.Domains()
	if err != nil {
		tb.Fatal(err)
	}
	labels := make([]int, len(domains))
	for i := range domains {
		labels[i] = i % 2
	}
	clf, err := det.TrainClassifier(domains, labels)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.SaveModel(&buf, clf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fixture caches the two model generations: building them once keeps
// the package fast enough to always run under -race.
var fixture struct {
	once             sync.Once
	modelA, modelB   []byte
	scorerA, scorerB *core.Scorer
}

func models(tb testing.TB) (a, b []byte, sa, sb *core.Scorer) {
	tb.Helper()
	fixture.once.Do(func() {
		fixture.modelA = tinyModel(tb, 5)
		fixture.modelB = tinyModel(tb, 6)
		var err error
		if fixture.scorerA, err = core.LoadScorer(bytes.NewReader(fixture.modelA)); err != nil {
			tb.Fatal(err)
		}
		if fixture.scorerB, err = core.LoadScorer(bytes.NewReader(fixture.modelB)); err != nil {
			tb.Fatal(err)
		}
	})
	if fixture.modelA == nil || fixture.modelB == nil {
		tb.Fatal("model fixture failed to build")
	}
	return fixture.modelA, fixture.modelB, fixture.scorerA, fixture.scorerB
}

// newTestServer writes model bytes to a file and builds a Server on it.
func newTestServer(tb testing.TB, model []byte, mutate func(*Config)) (*Server, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "model.bin")
	if err := os.WriteFile(path, model, 0o644); err != nil {
		tb.Fatal(err)
	}
	cfg := Config{ModelPath: path}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s, path
}

func getJSON(tb testing.TB, h http.Handler, method, target string, body io.Reader, out any) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

// TestScoreEndpoint checks the single-domain route: bit-identical
// scores for every retained domain (JSON float64 round-trips exactly)
// and a 404 mapped from core.ErrUnknownDomain for everything else.
func TestScoreEndpoint(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	for _, dom := range scorerA.Domains() {
		var resp ScoreResponse
		rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+dom, nil, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/score/%s: status %d: %s", dom, rec.Code, rec.Body.String())
		}
		want, _ := scorerA.Score(dom)
		if resp.Score != want {
			t.Fatalf("%s: served score %v != Scorer.Score %v", dom, resp.Score, want)
		}
		if p, _ := scorerA.Predict(dom); p != resp.Label {
			t.Fatalf("%s: served label %d != Predict %d", dom, resp.Label, p)
		}
	}
	rec := getJSON(t, s.Handler(), "GET", "/v1/score/never-seen.example", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown domain: status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "never-seen.example") {
		t.Errorf("404 body %q does not name the domain", rec.Body.String())
	}
}

// TestBatchEndpoint checks the batch route: order-aligned results,
// Known flags, bit-identical scores, and the input-validation errors.
func TestBatchEndpoint(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, func(c *Config) { c.MaxBatch = 16 })
	domains := append([]string{"missing.example"}, scorerA.Domains()...)
	body, _ := json.Marshal(BatchRequest{Domains: domains})
	var resp BatchResponse
	rec := getJSON(t, s.Handler(), "POST", "/v1/score/batch", bytes.NewReader(body), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != len(domains) {
		t.Fatalf("%d results for %d domains", len(resp.Results), len(domains))
	}
	if resp.Fingerprint != scorerA.Fingerprint() {
		t.Errorf("fingerprint %q, want %q", resp.Fingerprint, scorerA.Fingerprint())
	}
	for i, r := range resp.Results {
		if r.Domain != domains[i] {
			t.Fatalf("result %d is %q, want %q", i, r.Domain, domains[i])
		}
		want, ok := scorerA.Score(domains[i])
		if ok != r.Known {
			t.Fatalf("%s: known=%v, want %v", r.Domain, r.Known, ok)
		}
		if ok && r.Score != want {
			t.Fatalf("%s: batch score %v != Scorer.Score %v", r.Domain, r.Score, want)
		}
	}

	rec = getJSON(t, s.Handler(), "POST", "/v1/score/batch", strings.NewReader("not json"), nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", rec.Code)
	}
	big, _ := json.Marshal(BatchRequest{Domains: make([]string, 17)})
	rec = getJSON(t, s.Handler(), "POST", "/v1/score/batch", bytes.NewReader(big), nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", rec.Code)
	}
}

// TestReloadUnderFire is the hot-swap guarantee: goroutines score
// continuously while the model file is rewritten and reloaded many
// times. Every request must succeed, and every returned score must be
// bit-identical to one of the two model generations.
func TestReloadUnderFire(t *testing.T) {
	modelA, modelB, scorerA, scorerB := models(t)
	s, path := newTestServer(t, modelA, nil)
	dom := scorerA.Domains()[0]
	wantA, _ := scorerA.Score(dom)
	wantB, okB := scorerB.Score(dom)
	if !okB {
		t.Fatalf("fixture: %s not retained by model B", dom)
	}
	if wantA == wantB {
		t.Fatalf("fixture: generations indistinguishable for %s", dom)
	}

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var resp ScoreResponse
				rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+dom, nil, &resp)
				if rec.Code != http.StatusOK {
					failures.Add(1)
					continue
				}
				if resp.Score != wantA && resp.Score != wantB {
					failures.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		next := modelB
		if i%2 == 1 {
			next = modelA
		}
		if err := os.WriteFile(path, next, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed or returned a torn score during reloads", n)
	}
	// 20 reloads, last one loaded model A (i=19 odd).
	if got := s.Scorer().Fingerprint(); got != scorerA.Fingerprint() {
		t.Errorf("final fingerprint %q, want model A's %q", got, scorerA.Fingerprint())
	}
}

// TestBatchReloadUnderFire is TestReloadUnderFire for the batch route,
// whose responses are assembled from three things a reload replaces —
// the fingerprint, the index and the pre-rendered rows: while the model
// flips between generations, every score in a response must belong to
// the generation its fingerprint line names.
func TestBatchReloadUnderFire(t *testing.T) {
	modelA, modelB, scorerA, scorerB := models(t)
	s, path := newTestServer(t, modelA, nil)
	byFingerprint := map[string]*core.Scorer{
		scorerA.Fingerprint(): scorerA,
		scorerB.Fingerprint(): scorerB,
	}
	if len(byFingerprint) != 2 {
		t.Fatal("fixture: generations share a fingerprint")
	}
	queries := append([]string{"missing.example"}, scorerA.Domains()...)
	body := marshalBatch(t, queries...)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				req := httptest.NewRequest("POST", "/v1/score/batch", bytes.NewReader(body))
				req.Header.Set("Accept", NDJSONContentType)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				hdr, results, err := DecodeNDJSON(rec.Body)
				sc := byFingerprint[hdr.Fingerprint]
				if rec.Code != http.StatusOK || err != nil || sc == nil || len(results) != len(queries) {
					t.Errorf("status %d, %d results, fingerprint %q, err %v", rec.Code, len(results), hdr.Fingerprint, err)
					return
				}
				for i, res := range results {
					want, known := sc.Score(queries[i])
					if res.Domain != queries[i] || res.Known != known || res.Score != want {
						t.Errorf("generation %s answered %+v, its scorer says %v (known=%v)", hdr.Fingerprint, res, want, known)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		next := modelB
		if i%2 == 1 {
			next = modelA
		}
		if err := os.WriteFile(path, next, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestReloadCorruptKeepsServing: a truncated or garbage replacement
// file must fail the reload and leave the previous model serving, for
// both the Reload method and the HTTP endpoint.
func TestReloadCorruptKeepsServing(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, path := newTestServer(t, modelA, nil)
	dom := scorerA.Domains()[0]
	want, _ := scorerA.Score(dom)

	for name, corrupt := range map[string][]byte{
		"garbage":   []byte("this is not a model"),
		"truncated": modelA[:len(modelA)/3],
		"empty":     {},
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(); err == nil {
			t.Fatalf("%s replacement: reload succeeded", name)
		}
		rec := getJSON(t, s.Handler(), "POST", "/v1/reload", nil, nil)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s replacement: /v1/reload status %d, want 500", name, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), scorerA.Fingerprint()) {
			t.Errorf("%s replacement: error body does not report the still-serving fingerprint", name)
		}
		var resp ScoreResponse
		if rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+dom, nil, &resp); rec.Code != http.StatusOK {
			t.Fatalf("%s replacement: scoring broken after failed reload: %d", name, rec.Code)
		}
		if resp.Score != want {
			t.Fatalf("%s replacement: score changed after failed reload", name)
		}
	}
	// A missing file must fail the same way.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of a deleted file succeeded")
	}
	// Restoring a good file recovers via the HTTP endpoint.
	if err := os.WriteFile(path, modelA, 0o644); err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if rec := getJSON(t, s.Handler(), "POST", "/v1/reload", nil, &rr); rec.Code != http.StatusOK {
		t.Fatalf("recovery reload: status %d", rec.Code)
	}
	if rr.Fingerprint != scorerA.Fingerprint() {
		t.Errorf("recovery fingerprint %q, want %q", rr.Fingerprint, scorerA.Fingerprint())
	}
}

// slowBody lets a test hold a request in-flight: the handler's JSON
// decode blocks until the test releases the tail of the body.
type slowBody struct {
	head    io.Reader
	release chan struct{}
	tail    io.Reader
	started chan struct{}
	once    sync.Once
}

func newSlowBody(head, tail string) *slowBody {
	return &slowBody{
		head:    strings.NewReader(head),
		tail:    strings.NewReader(tail),
		release: make(chan struct{}),
		started: make(chan struct{}),
	}
}

func (b *slowBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.started) })
	n, err := b.head.Read(p)
	if n > 0 || err == nil {
		return n, nil
	}
	<-b.release
	return b.tail.Read(p)
}

// TestLoadShedding fills the single concurrency slot with a request
// whose body never finishes, then checks that the next scoring request
// is shed with 503 + Retry-After while /healthz stays reachable, and
// that the slot is reusable after the first request completes.
func TestLoadShedding(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, func(c *Config) {
		c.MaxInFlight = 1
		c.RequestTimeout = 30 * time.Second
	})
	dom := scorerA.Domains()[0]

	body := newSlowBody(`{"domains":["`, dom+`"]}`)
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", body))
		done <- rec
	}()
	<-body.started
	// The slot holder has passed the gate once its body read begins;
	// poll the inflight gauge to avoid racing the gate acquisition.
	for i := 0; s.inflight.Value() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.inflight.Value() != 1 {
		t.Fatal("in-flight request never occupied the gate")
	}

	rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+dom, nil, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if rec := getJSON(t, s.Handler(), "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz shed with the scoring gate: status %d", rec.Code)
	}
	if s.shed.Value() == 0 {
		t.Error("shed counter not incremented")
	}

	close(body.release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("slot-holding request: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScoreResponse
	if rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+dom, nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("gate not released: status %d", rec.Code)
	}
}

// TestGracefulShutdown drives a real listener: a request is held
// in-flight while Shutdown is called; the listener must stop accepting
// new work, the in-flight request must complete with a valid response,
// and both Serve and Shutdown must return cleanly before the drain
// deadline.
func TestGracefulShutdown(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, func(c *Config) {
		c.RequestTimeout = 30 * time.Second
		c.DrainTimeout = 10 * time.Second
	})
	dom := scorerA.Domains()[0]

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Sanity: the daemon answers over the wire.
	resp, err := http.Get(base + "/v1/score/" + dom)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d", resp.StatusCode)
	}

	// Hold one request in-flight via a body the server can't finish
	// reading yet.
	pr, pw := io.Pipe()
	inflightDone := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest("POST", base+"/v1/score/batch", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			inflightDone <- nil
			return
		}
		inflightDone <- resp
	}()
	if _, err := pw.Write([]byte(`{"domains":["` + dom + `"`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.inflight.Value() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.inflight.Value() != 1 {
		t.Fatal("request never went in-flight")
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// New connections must be refused once Shutdown closed the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting new connections during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Completing the body lets the in-flight request finish and drain.
	if _, err := pw.Write([]byte(`]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	resp = <-inflightDone
	if resp == nil {
		t.Fatal("in-flight request dropped during graceful shutdown")
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatalf("in-flight response unreadable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(batch.Results) != 1 || !batch.Results[0].Known {
		t.Fatalf("in-flight response wrong: status %d, %+v", resp.StatusCode, batch)
	}
	if want, _ := scorerA.Score(dom); batch.Results[0].Score != want {
		t.Fatalf("in-flight score %v != %v", batch.Results[0].Score, want)
	}

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request drained")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}
}

// TestHealthzAndMetrics checks the operational endpoints: healthz
// reports the model identity, and /metrics exposes the request
// counters and latency histograms in Prometheus text format.
func TestHealthzAndMetrics(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	var health HealthResponse
	if rec := getJSON(t, s.Handler(), "GET", "/healthz", nil, &health); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	if health.Status != "ok" || health.Fingerprint != scorerA.Fingerprint() ||
		health.Domains != len(scorerA.Domains()) {
		t.Fatalf("healthz = %+v", health)
	}

	// Generate one 200 and one 404, then read the exposition.
	getJSON(t, s.Handler(), "GET", "/v1/score/"+scorerA.Domains()[0], nil, nil)
	getJSON(t, s.Handler(), "GET", "/v1/score/missing.example", nil, nil)
	rec := getJSON(t, s.Handler(), "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`maldomain_http_requests_total{path="/v1/score",code="200"} 1`,
		`maldomain_http_requests_total{path="/v1/score",code="404"} 1`,
		"# TYPE maldomain_http_request_seconds histogram",
		`maldomain_http_request_seconds_count{path="/v1/score"} 2`,
		"maldomain_scores_total 1",
		"maldomain_score_unknown_total 1",
		fmt.Sprintf("maldomain_model_domains %d", len(scorerA.Domains())),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestPprofGate: the profiling routes exist only when enabled.
func TestPprofGate(t *testing.T) {
	modelA, _, _, _ := models(t)
	off, _ := newTestServer(t, modelA, nil)
	if rec := getJSON(t, off.Handler(), "GET", "/debug/pprof/", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("pprof reachable while disabled: %d", rec.Code)
	}
	on, _ := newTestServer(t, modelA, func(c *Config) { c.EnablePprof = true })
	if rec := getJSON(t, on.Handler(), "GET", "/debug/pprof/", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("pprof index while enabled: %d", rec.Code)
	}
}

// TestNewRejectsBadModel: startup must fail loudly without a loadable
// model.
func TestNewRejectsBadModel(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Config{ModelPath: filepath.Join(dir, "absent.bin")}); err == nil {
		t.Error("New accepted a missing model file")
	}
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ModelPath: bad}); err == nil {
		t.Error("New accepted a corrupt model file")
	}
}

// TestHealthSplit checks the liveness/readiness split: /healthz/live
// answers 200 regardless of model state, /healthz/ready (and the
// /healthz alias) answers 200 with the model identity when serving and
// 503 with the not_ready envelope while a reload is in flight or no
// model generation is installed.
func TestHealthSplit(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)

	var live LivenessResponse
	if rec := getJSON(t, s.Handler(), "GET", "/healthz/live", nil, &live); rec.Code != http.StatusOK {
		t.Fatalf("live: status %d", rec.Code)
	}
	if live.Status != "alive" {
		t.Fatalf("live = %+v", live)
	}

	for _, path := range []string{"/healthz", "/healthz/ready"} {
		var health HealthResponse
		if rec := getJSON(t, s.Handler(), "GET", path, nil, &health); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if health.Status != "ok" || health.Fingerprint != scorerA.Fingerprint() {
			t.Fatalf("%s = %+v", path, health)
		}
	}

	// Simulate a (re)load in flight: readiness flips to 503 not_ready,
	// liveness stays 200 — an orchestrator must not kill a daemon whose
	// next model generation is still decoding.
	s.reloading.Store(true)
	for _, path := range []string{"/healthz", "/healthz/ready"} {
		rec := getJSON(t, s.Handler(), "GET", path, nil, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during reload: status %d", path, rec.Code)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s during reload: bad envelope %q: %v", path, rec.Body.String(), err)
		}
		if body.Error.Code != codeNotReady {
			t.Fatalf("%s during reload: code %q, want %q", path, body.Error.Code, codeNotReady)
		}
	}
	if rec := getJSON(t, s.Handler(), "GET", "/healthz/live", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("live during reload: status %d", rec.Code)
	}
	s.reloading.Store(false)

	// A server with no installed generation is alive but not ready.
	s.model.Store(nil)
	rec := getJSON(t, s.Handler(), "GET", "/healthz/ready", nil, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ready without model: status %d", rec.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("ready without model: bad envelope %q: %v", rec.Body.String(), err)
	}
	if body.Error.Code != codeNotReady {
		t.Fatalf("ready without model: code %q", body.Error.Code)
	}
	if rec := getJSON(t, s.Handler(), "GET", "/healthz/live", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("live without model: status %d", rec.Code)
	}

	// Wrong method: the probes are GET-only.
	if rec := getJSON(t, s.Handler(), "POST", "/healthz/live", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST live: status %d", rec.Code)
	}
}

// requestSeries reads every maldomain_http_requests_total series from
// the daemon's /metrics exposition, keyed by its label set.
func requestSeries(t *testing.T, s *Server) map[string]int {
	t.Helper()
	rec := getJSON(t, s.Handler(), "GET", "/metrics", nil, nil)
	series := map[string]int{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "maldomain_http_requests_total"); ok {
			labels, value, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(value)
			if err != nil {
				t.Fatalf("series %s: value %q: %v", labels, value, err)
			}
			series[labels] = n
		}
	}
	return series
}

// TestRouteTable walks the daemon's routes and the paths around them:
// each (method, path) pair must answer its status, name the allowed
// method on a 405, carry the JSON envelope or the plain-text 404 as
// documented, and move exactly the one request series its route owns
// (none for /metrics, pprof and unrouted paths).
func TestRouteTable(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	retained := scorerA.Domains()[0]
	observe, _ := observeBody(t, "route-table.example", scorerA.Domains())
	cases := []struct {
		pprof        bool
		method, path string
		body         string
		status       int
		allow        string // Allow header of a 405
		code         string // ErrorBody code; "" for a success or a plain-text 404
		series       string // request series incremented; "" for none
	}{
		{false, "GET", "/v1/score/" + retained, "", 200, "", "", `{path="/v1/score",code="200"}`},
		{false, "POST", "/v1/score/" + retained, "", 405, "GET", "method_not_allowed", `{path="/v1/score",code="405"}`},
		{false, "GET", "/v1/score/missing.example", "", 404, "", "unknown_domain", `{path="/v1/score",code="404"}`},
		{false, "GET", "/v1/score/a/b", "", 404, "", "not_found", `{path="/v1/score",code="404"}`},
		{false, "GET", "/v1/score/", "", 404, "", "not_found", ""},
		{false, "POST", "/v1/score/batch", `{"domains":["` + retained + `"]}`, 200, "", "", `{path="/v1/score/batch",code="200"}`},
		{false, "GET", "/v1/score/batch", "", 405, "POST", "method_not_allowed", `{path="/v1/score/batch",code="405"}`},
		{false, "POST", "/v1/observe", string(observe), 200, "", "", `{path="/v1/observe",code="200"}`},
		{false, "GET", "/v1/observe", "", 405, "POST", "method_not_allowed", `{path="/v1/observe",code="405"}`},
		{false, "POST", "/v1/reload", "", 200, "", "", `{path="/v1/reload",code="200"}`},
		{false, "GET", "/v1/reload", "", 405, "POST", "method_not_allowed", `{path="/v1/reload",code="405"}`},
		{false, "GET", "/healthz", "", 200, "", "", `{path="/healthz",code="200"}`},
		{false, "GET", "/healthz/ready", "", 200, "", "", `{path="/healthz",code="200"}`},
		{false, "POST", "/healthz/ready", "", 405, "GET", "method_not_allowed", `{path="/healthz",code="405"}`},
		{false, "GET", "/healthz/live", "", 200, "", "", `{path="/healthz/live",code="200"}`},
		{false, "POST", "/healthz/live", "", 405, "GET", "method_not_allowed", `{path="/healthz/live",code="405"}`},
		{false, "GET", "/metrics", "", 200, "", "", ""},
		{false, "POST", "/metrics", "", 405, "GET", "method_not_allowed", ""},
		{false, "GET", "/v1/nope", "", 404, "", "not_found", ""},
		{false, "GET", "/nope", "", 404, "", "", ""},
		{false, "GET", "/debug/pprof/", "", 404, "", "", ""},
		{true, "GET", "/debug/pprof/", "", 200, "", "", ""},
		{true, "POST", "/debug/pprof/", "", 405, "GET", "method_not_allowed", ""},
	}
	off, _ := newTestServer(t, modelA, nil)
	on, _ := newTestServer(t, modelA, func(c *Config) { c.EnablePprof = true })
	for _, tc := range cases {
		s := off
		if tc.pprof {
			s = on
		}
		name := fmt.Sprintf("%s %s (pprof=%v)", tc.method, tc.path, tc.pprof)
		before := requestSeries(t, s)
		rec := getJSON(t, s.Handler(), tc.method, tc.path, strings.NewReader(tc.body), nil)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow %q, want %q", name, got, tc.allow)
		}
		switch {
		case tc.code != "":
			var envelope ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != tc.code {
				t.Errorf("%s: body %q, want the %q envelope", name, rec.Body.String(), tc.code)
			}
		case tc.status == http.StatusNotFound:
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("%s: Content-Type %q, want the plain-text 404", name, ct)
			}
		}
		after := requestSeries(t, s)
		for labels, v := range after {
			want := before[labels]
			if labels == tc.series {
				want++
			}
			if v != want {
				t.Errorf("%s: series %s went %d → %d, want %d", name, labels, before[labels], v, want)
			}
		}
		if _, ok := after[tc.series]; tc.series != "" && !ok {
			t.Errorf("%s: series %s not exported", name, tc.series)
		}
	}
}

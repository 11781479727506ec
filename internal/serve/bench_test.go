package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// benchServer builds one Server over the tiny fixture model for the
// throughput benchmarks. Measuring at the handler level (no sockets)
// isolates the serving hot path — routing, gate, scoring, JSON
// encoding — from kernel networking noise.
func benchServer(b *testing.B) *Server {
	modelA, _, _, _ := models(b)
	s, _ := newTestServer(b, modelA, nil)
	return s
}

// benchWriter is a reusable ResponseWriter: a recorder allocates a
// fresh header map and body buffer per request, which would swamp the
// handler's own allocations, the number this file exists to measure.
type benchWriter struct {
	h    http.Header
	code int
	n    int
}

func newBenchWriter() *benchWriter {
	return &benchWriter{h: make(http.Header, 4)}
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *benchWriter) reset()                      { w.code = 0; w.n = 0 }

// Flush makes the writer an http.Flusher like the real server's: the
// ResponseController's ErrNotSupported for a writer without one
// allocates per flush.
func (w *benchWriter) Flush() {}

// TestHandlerZeroAlloc pins the single-score routes to zero heap
// allocations through the full handler — router, gate, metrics, lookup,
// write — with the request and writer reused as in the benchmarks
// below: (a) a retained domain, answered from its pre-rendered row, and
// (b) a domain outside the model, answered from the fold-in cache after
// one observe and one warm-up score.
func TestHandlerZeroAlloc(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	neighbors := scorerA.Domains()
	const unseen = "alloc-foldin.example"
	body, err := json.Marshal(ObserveRequest{Domain: unseen, Relations: []ObserveRelation{
		{View: "query", Neighbor: neighbors[0], Weight: 2},
		{View: "ip", Neighbor: neighbors[1], Weight: 1},
		{View: "time", Neighbor: neighbors[2], Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := newBenchWriter()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/observe", bytes.NewReader(body)))
	if w.code != http.StatusOK {
		t.Fatalf("observe status %d", w.code)
	}
	for name, domain := range map[string]string{"retained": neighbors[0], "foldin": unseen} {
		req := httptest.NewRequest("GET", "/v1/score/"+domain, nil)
		score := func() {
			w.reset()
			s.ServeHTTP(w, req)
		}
		score() // warm-up: the fold-in verdict is memoized on first score
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.code)
		}
		if n := testing.AllocsPerRun(100, score); n != 0 {
			t.Errorf("%s: GET /v1/score/{domain} allocates %v times per request, want 0", name, n)
		}
	}
}

// BenchmarkServeScore measures single-domain GETs through the full
// stack — router, gate, metrics, scoring, manual encoding — with the
// request and writer reused so the handler's own allocations are what
// the -benchmem column shows; the ledger's
// serve.handler_allocs_per_req is the same measurement.
func BenchmarkServeScore(b *testing.B) {
	s := benchServer(b)
	dom := s.Scorer().Domains()[0]
	req := httptest.NewRequest("GET", "/v1/score/"+dom, nil)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkServeScoreParallel drives the handler from all procs — the
// many-clients shape the concurrency gate, atomic model pointer, and
// pre-resolved metric series are built for. Each goroutine owns its
// request and writer; nothing is constructed inside the loop.
func BenchmarkServeScoreParallel(b *testing.B) {
	s := benchServer(b)
	domains := s.Scorer().Domains()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dom := domains[int(next.Add(1))%len(domains)]
		req := httptest.NewRequest("GET", "/v1/score/"+dom, nil)
		w := newBenchWriter()
		for pb.Next() {
			w.reset()
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// batchRequest builds a reusable POST /v1/score/batch request whose
// body can be rewound with rewind() between iterations.
func batchRequest(tb testing.TB, domains []string, ndjson bool) (*http.Request, func()) {
	br := bytes.NewReader(marshalBatch(tb, domains...))
	req := httptest.NewRequest("POST", "/v1/score/batch", io.NopCloser(br))
	if ndjson {
		req.Header.Set("Accept", NDJSONContentType)
	}
	return req, func() { br.Seek(0, io.SeekStart) }
}

// BenchmarkServeBatch measures small-batch POSTs (the fixture model's
// full domain set per request); throughput is reported in scored
// domains per second.
func BenchmarkServeBatch(b *testing.B) {
	s := benchServer(b)
	domains := s.Scorer().Domains()
	req, rewind := batchRequest(b, domains, false)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewind()
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N*len(domains))/b.Elapsed().Seconds(), "domains/sec")
}

// largeBatch tiles the model's domains up to n entries, the shape of a
// bulk scoring client that saturates MaxBatch.
func largeBatch(s *Server, n int) []string {
	domains := s.Scorer().Domains()
	out := make([]string, n)
	for i := range out {
		out[i] = domains[i%len(domains)]
	}
	return out
}

// BenchmarkServeBatchLarge measures a MaxBatch-sized buffered batch:
// the handler-level counterpart of the ledger's batch_domains_per_s.
func BenchmarkServeBatchLarge(b *testing.B) {
	s := benchServer(b)
	batch := largeBatch(s, 10_000)
	req, rewind := batchRequest(b, batch, false)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewind()
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "domains/sec")
}

// BenchmarkServeFoldinScore measures the unknown-domain fold-in path
// through the full stack after the cache is warm: routing, gate, the
// decision-table miss, the fold-in cache hit, and the enriched
// encoding, at 0 allocs/op.
func BenchmarkServeFoldinScore(b *testing.B) {
	s := benchServer(b)
	neighbors := s.Scorer().Domains()
	const unseen = "bench-foldin.example"
	body, err := json.Marshal(ObserveRequest{Domain: unseen, Relations: []ObserveRelation{
		{View: "query", Neighbor: neighbors[0], Weight: 2},
		{View: "ip", Neighbor: neighbors[1], Weight: 1},
		{View: "time", Neighbor: neighbors[2], Weight: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	w := newBenchWriter()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/observe", bytes.NewReader(body)))
	if w.code != http.StatusOK {
		b.Fatalf("observe status %d", w.code)
	}
	req := httptest.NewRequest("GET", "/v1/score/"+unseen, nil)
	w.reset()
	s.ServeHTTP(w, req) // warm the per-scorer result cache
	if w.code != http.StatusOK {
		b.Fatalf("warmup status %d", w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkServeBatchNDJSON measures the same MaxBatch-sized batch
// through the streamed NDJSON framing, isolating the cost of
// chunked encoding against the buffered document above.
func BenchmarkServeBatchNDJSON(b *testing.B) {
	s := benchServer(b)
	batch := largeBatch(s, 10_000)
	req, rewind := batchRequest(b, batch, true)
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewind()
		w.reset()
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "domains/sec")
}

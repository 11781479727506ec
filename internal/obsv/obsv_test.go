package obsv

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "total jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("jobs_total", "total jobs"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("queue_depth", "current depth")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}

	// A counter kept by its owner is read at exposition, not at
	// registration.
	var misses uint64
	r.CounterFunc("misses_total", "cache misses", func() uint64 { return misses })
	misses = 7

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP jobs_total total jobs",
		"# TYPE jobs_total counter",
		"jobs_total 5",
		"# TYPE misses_total counter",
		"misses_total 7",
		"# TYPE queue_depth gauge",
		"queue_depth 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestVecSeriesAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "path", "code")
	v.With("/v1/score", "200").Add(3)
	v.With("/v1/score", "404").Inc()
	if got := v.With("/v1/score", "200").Value(); got != 3 {
		t.Fatalf("series value = %d, want 3", got)
	}
	// Label values with exposition metacharacters must be escaped.
	r.GaugeVec("weird", "", "name").With("a\"b\\c\nd").Set(1)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`http_requests_total{path="/v1/score",code="200"} 3`,
		`http_requests_total{path="/v1/score",code="404"} 1`,
		`weird{name="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	for name, f := range map[string]func(){
		"kind":   func() { r.Gauge("m", "") },
		"labels": func() { r.CounterVec("m", "", "path") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong label arity did not panic")
			}
		}()
		r.CounterVec("v", "", "a", "b").With("only-one")
	}()
}

// TestHistogramBuckets checks the log-linear scheme end to end:
// observations land in the right bucket, the exposition is cumulative,
// and sum/count agree.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "request latency")
	h.Observe(0.0009) // <= 0.001 bucket
	h.Observe(0.002)  // <= 0.0025 bucket
	h.Observe(0.002)
	h.Observe(5000) // beyond every bound: +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.0009+0.002+0.002+5000; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.001"} 1`,
		`latency_seconds_bucket{le="0.0025"} 3`, // cumulative
		`latency_seconds_bucket{le="1000"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDefaultBucketsShape(t *testing.T) {
	b := DefaultBuckets()
	if len(b) == 0 {
		t.Fatal("no buckets")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not strictly ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	if b[0] > 1e-6 || b[len(b)-1] < 1000 {
		t.Fatalf("bucket span [%v, %v] does not cover 1µs..1000s", b[0], b[len(b)-1])
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; correctness of the totals plus the race detector cover
// the atomic paths.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	hv := r.HistogramVec("h", "", "route")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hv.With("hot")
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*each)
	}
	if h := hv.With("hot"); h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

// Package loadgen is the daemon's load generator: a worker-pool HTTP
// client that drives maldetect serve's scoring endpoints at a target
// rate and reports what the daemon actually sustained — throughput,
// latency percentiles, shed and error counts. It exists to give the
// zero-allocation serving claims an end-to-end measurement over real
// sockets: `go test -bench` numbers isolate the handler, loadgen
// numbers include the HTTP stack, the concurrency gate, and the
// client's own scheduling.
//
// The generator paces with a token bucket (TargetQPS tokens per
// second, small burst) shared by all workers, so offered load is
// shaped rather than convoyed; unpaced runs (TargetQPS=0) measure
// closed-loop capacity instead. 503 responses — the daemon shedding
// load — are tracked separately from errors and retried with
// exponential backoff, because shed-and-retry is the client behavior
// the Retry-After contract asks for.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
	"repro/internal/obsv"
	"repro/internal/serve"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the daemon's root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Domains is the query population; workers cycle through it
	// round-robin. Required.
	Domains []string
	// Workers is the number of concurrent request loops (default 8).
	Workers int
	// Conns caps HTTP connections to the daemon (default Workers).
	Conns int
	// TargetQPS paces offered load with a token bucket; 0 runs
	// closed-loop as fast as the workers turn around.
	TargetQPS float64
	// Duration bounds the run in wall time. At least one of Duration
	// and Requests must be set; whichever trips first ends the run.
	Duration time.Duration
	// Requests bounds the run in completed requests.
	Requests int64
	// Batch switches from single-domain GETs to POST /v1/score/batch
	// with this many domains per request (0 or 1 keeps single GETs).
	Batch int
	// NDJSON opts batch requests into the streamed x-ndjson framing.
	NDJSON bool
	// Retries is how many times a transport error or 503 is retried
	// before counting as a failure (default 0: fail fast).
	Retries int
	// Backoff is the base of the exponential retry backoff (default
	// 20ms). Attempt n draws its wait uniformly from [d/2, d) where
	// d = Backoff·2ⁿ capped at MaxBackoff — equal jitter, so workers
	// shed together do not retry together and re-convoy on the daemon.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// Seed drives the backoff jitter (default 1). Fixed seeds make
	// retry schedules reproducible run to run.
	Seed uint64
	// Timeout bounds one HTTP request (default 5s).
	Timeout time.Duration
	// Client overrides the HTTP client, for tests. When nil a client
	// with a dedicated pooled transport is built from Conns/Timeout.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Conns <= 0 {
		c.Conns = c.Workers
	}
	if c.Backoff <= 0 {
		c.Backoff = 20 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// Report is what a run measured. Requests = OK + Errors; attempts
// beyond a request's first are counted in Retries, not Requests.
type Report struct {
	Requests uint64        `json:"requests"`
	OK       uint64        `json:"ok"`
	Errors   uint64        `json:"errors"`
	Shed     uint64        `json:"shed"` // 503 responses received (each counted, retried or not)
	Retries  uint64        `json:"retries"`
	Domains  uint64        `json:"domains"` // domains scored across all OK responses
	Elapsed  time.Duration `json:"elapsed_ns"`

	// Verdict-source tallies, collected in NDJSON mode where the
	// result lines are parsed: how many scored domains were answered
	// from the model's decision table versus the fold-in/kNN fallback.
	// Model+Foldin+KNN ≤ Domains; the gap is no-evidence entries.
	Model  uint64 `json:"source_model,omitempty"`
	Foldin uint64 `json:"source_foldin,omitempty"`
	KNN    uint64 `json:"source_knn,omitempty"`

	P50, P90, P99 time.Duration `json:"-"`

	ReqPerSec     float64 `json:"req_per_sec"`
	DomainsPerSec float64 `json:"domains_per_sec"`

	// FirstError preserves the first failure's text for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// String renders the human report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d requests in %v (%.1f req/s, %.1f domains/s)\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.ReqPerSec, r.DomainsPerSec)
	fmt.Fprintf(&b, "  ok %d   errors %d   shed %d   retries %d\n", r.OK, r.Errors, r.Shed, r.Retries)
	if r.Model+r.Foldin+r.KNN > 0 {
		fmt.Fprintf(&b, "  sources: model %d   foldin %d   knn %d\n", r.Model, r.Foldin, r.KNN)
	}
	fmt.Fprintf(&b, "  latency p50 %v  p90 %v  p99 %v",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if r.FirstError != "" {
		fmt.Fprintf(&b, "\n  first error: %s", r.FirstError)
	}
	return b.String()
}

// BenchJSON renders the report as a JSON object keyed by name, in the
// schema of the repository's BENCH_*.json files. Iterations is the
// request count and ns_per_op the median request latency; rates and
// percentiles ride in metrics.
func (r Report) BenchJSON(name string) ([]byte, error) {
	var nsPerOp float64
	if r.OK > 0 {
		// Mean over the run, derived from offered concurrency-free
		// wall math would mislead; report the median instead, which
		// the histogram measured directly.
		nsPerOp = float64(r.P50.Nanoseconds())
	}
	doc := map[string]struct {
		Iterations int64              `json:"iterations"`
		NsPerOp    float64            `json:"ns_per_op"`
		Metrics    map[string]float64 `json:"metrics,omitempty"`
	}{
		name: {
			Iterations: int64(r.Requests),
			NsPerOp:    nsPerOp,
			Metrics: map[string]float64{
				"req/sec":     r.ReqPerSec,
				"domains/sec": r.DomainsPerSec,
				"p50_ms":      float64(r.P50) / float64(time.Millisecond),
				"p90_ms":      float64(r.P90) / float64(time.Millisecond),
				"p99_ms":      float64(r.P99) / float64(time.Millisecond),
				"errors":      float64(r.Errors),
				"shed":        float64(r.Shed),
			},
		},
	}
	if r.Model+r.Foldin+r.KNN > 0 {
		m := doc[name].Metrics
		m["source_model"] = float64(r.Model)
		m["source_foldin"] = float64(r.Foldin)
		m["source_knn"] = float64(r.KNN)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// pacer is a mutex token bucket: TargetQPS tokens per second with a
// burst of rate/50 (≥1), so offered load is smooth at the 20ms scale
// without convoying every worker onto the same tick.
type pacer struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newPacer(qps float64) *pacer {
	if qps <= 0 {
		return nil
	}
	burst := qps / 50
	if burst < 1 {
		burst = 1
	}
	return &pacer{rate: qps, burst: burst, tokens: burst, last: time.Now()}
}

// resetTimer lazily allocates t on first use and re-arms it after.
// Callers only invoke it after draining t.C, so Reset is race-free.
func resetTimer(t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

// wait blocks until a token is available or ctx ends.
func (p *pacer) wait(ctx context.Context) error {
	if p == nil {
		return ctx.Err()
	}
	var timer *time.Timer // reused across iterations; Reset is safe after a receive
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		p.mu.Lock()
		now := time.Now()
		p.tokens += now.Sub(p.last).Seconds() * p.rate
		p.last = now
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
		if p.tokens >= 1 {
			p.tokens--
			p.mu.Unlock()
			return nil
		}
		need := time.Duration((1 - p.tokens) / p.rate * float64(time.Second))
		p.mu.Unlock()
		timer = resetTimer(timer, need)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// latencyBounds is a geometric grid from 50µs to ~30s (step ×1.25),
// giving Quantile about ±12% resolution anywhere in the range.
func latencyBounds() []float64 {
	var b []float64
	for v := 50e-6; v < 30; v *= 1.25 {
		b = append(b, v)
	}
	return b
}

// loader is one run's shared state.
type loader struct {
	cfg    Config
	client *http.Client
	pace   *pacer
	hist   *obsv.Histogram

	urls    []string // single mode: prebuilt GET targets
	bodies  [][]byte // batch mode: prebuilt request bodies
	next    atomic.Uint64
	limited bool
	budget  atomic.Int64 // remaining requests when limited

	ok, errs, shed, retries, domains atomic.Uint64
	srcModel, srcFoldin, srcKNN      atomic.Uint64

	errOnce  sync.Once
	firstErr atomic.Pointer[string]
}

// Run drives the configured load and reports what it measured. The
// returned error covers configuration problems only; request failures
// are counted in the Report.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: BaseURL required")
	}
	if len(cfg.Domains) == 0 {
		return Report{}, fmt.Errorf("loadgen: no domains to query")
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		return Report{}, fmt.Errorf("loadgen: set Duration or Requests")
	}
	l := &loader{
		cfg:    cfg,
		client: cfg.Client,
		pace:   newPacer(cfg.TargetQPS),
		hist:   obsv.NewHistogram(latencyBounds()),
	}
	if l.client == nil {
		l.client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Conns * 2,
				MaxIdleConnsPerHost: cfg.Conns,
				MaxConnsPerHost:     cfg.Conns,
			},
		}
	}
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	if cfg.Batch > 1 {
		if err := l.buildBodies(); err != nil {
			return Report{}, err
		}
	} else {
		l.urls = make([]string, len(cfg.Domains))
		for i, d := range cfg.Domains {
			l.urls[i] = base + "/v1/score/" + url.PathEscape(d)
		}
	}
	if cfg.Requests > 0 {
		l.limited = true
		l.budget.Store(cfg.Requests)
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	start := time.Now()
	var wg sync.WaitGroup
	jitter := mathx.NewRNG(cfg.Seed).SplitLabeled("loadgen-backoff")
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		rng := jitter.SplitLabeled(fmt.Sprint(w))
		go func() {
			defer wg.Done()
			l.worker(ctx, rng)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		OK:      l.ok.Load(),
		Errors:  l.errs.Load(),
		Shed:    l.shed.Load(),
		Retries: l.retries.Load(),
		Domains: l.domains.Load(),
		Model:   l.srcModel.Load(),
		Foldin:  l.srcFoldin.Load(),
		KNN:     l.srcKNN.Load(),
		Elapsed: elapsed,
		P50:     time.Duration(l.hist.Quantile(0.50) * float64(time.Second)),
		P90:     time.Duration(l.hist.Quantile(0.90) * float64(time.Second)),
		P99:     time.Duration(l.hist.Quantile(0.99) * float64(time.Second)),
	}
	rep.Requests = rep.OK + rep.Errors
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ReqPerSec = float64(rep.Requests) / secs
		rep.DomainsPerSec = float64(rep.Domains) / secs
	}
	if p := l.firstErr.Load(); p != nil {
		rep.FirstError = *p
	}
	return rep, nil
}

// buildBodies pre-marshals the batch request bodies once: workers then
// only rewind readers, never re-encode.
func (l *loader) buildBodies() error {
	n := (len(l.cfg.Domains) + l.cfg.Batch - 1) / l.cfg.Batch
	l.bodies = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		batch := make([]string, l.cfg.Batch)
		for j := range batch {
			batch[j] = l.cfg.Domains[(i*l.cfg.Batch+j)%len(l.cfg.Domains)]
		}
		body, err := json.Marshal(serve.BatchRequest{Domains: batch})
		if err != nil {
			return fmt.Errorf("loadgen: encoding batch body: %w", err)
		}
		l.bodies = append(l.bodies, body)
	}
	return nil
}

func (l *loader) worker(ctx context.Context, rng *mathx.RNG) {
	// Per-worker NDJSON counting buffer, reused across responses.
	var ndbuf []byte
	if l.cfg.NDJSON {
		ndbuf = make([]byte, 32*1024)
	}
	for {
		if ctx.Err() != nil {
			return
		}
		if l.limited && l.budget.Add(-1) < 0 {
			return
		}
		if err := l.pace.wait(ctx); err != nil {
			return
		}
		l.one(ctx, l.next.Add(1)-1, ndbuf, rng)
	}
}

// backoffFor computes the jittered wait before retry attempt n
// (0-based): Backoff·2ⁿ capped at MaxBackoff, drawn uniformly from the
// upper half of that delay. The shift is clamped so pathological retry
// budgets cannot overflow the duration arithmetic.
func (l *loader) backoffFor(attempt int, rng *mathx.RNG) time.Duration {
	shift := uint(attempt)
	if shift > 16 {
		shift = 16
	}
	d := l.cfg.Backoff << shift
	if d <= 0 || d > l.cfg.MaxBackoff {
		d = l.cfg.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// one issues a single logical request, retrying transport errors and
// 503s with jittered exponential backoff up to cfg.Retries.
func (l *loader) one(ctx context.Context, seq uint64, ndbuf []byte, rng *mathx.RNG) {
	var timer *time.Timer // reused across retries; Reset is safe after a receive
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 0; ; attempt++ {
		start := time.Now()
		scored, status, err := l.attempt(ctx, seq, ndbuf)
		switch {
		case err == nil && status == http.StatusOK:
			l.hist.Observe(time.Since(start).Seconds())
			l.ok.Add(1)
			l.domains.Add(scored)
			return
		case err != nil && ctx.Err() != nil:
			// Run ended mid-request; not a daemon failure.
			return
		case status == http.StatusServiceUnavailable:
			l.shed.Add(1)
			l.noteError(fmt.Sprintf("request %d: 503 server at capacity", seq))
		case err != nil:
			l.noteError(fmt.Sprintf("request %d: %v", seq, err))
		default:
			// A definitive non-shed HTTP status (404, 400, ...) will
			// not improve on retry.
			l.errs.Add(1)
			l.noteError(fmt.Sprintf("request %d: HTTP %d", seq, status))
			return
		}
		if attempt >= l.cfg.Retries {
			l.errs.Add(1)
			return
		}
		if ctx.Err() != nil {
			// The run was cancelled between attempts: stop retrying
			// immediately rather than arming a backoff timer against a
			// dead context. Like a cancelled in-flight request, the
			// unfinished logical request counts neither OK nor error.
			return
		}
		l.retries.Add(1)
		timer = resetTimer(timer, l.backoffFor(attempt, rng))
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
	}
}

// attempt performs one HTTP exchange and returns the domains scored,
// the status code, and any transport error.
func (l *loader) attempt(ctx context.Context, seq uint64, ndbuf []byte) (uint64, int, error) {
	var req *http.Request
	var err error
	var batchSize uint64
	if l.bodies != nil {
		body := l.bodies[seq%uint64(len(l.bodies))]
		batchSize = uint64(l.cfg.Batch)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimSuffix(l.cfg.BaseURL, "/")+"/v1/score/batch", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if l.cfg.NDJSON {
				req.Header.Set("Accept", serve.NDJSONContentType)
			}
		}
	} else {
		batchSize = 1
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, l.urls[seq%uint64(len(l.urls))], nil)
	}
	if err != nil {
		return 0, 0, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	if l.cfg.NDJSON && l.bodies != nil {
		tally, err := serve.TallyNDJSON(resp.Body, ndbuf)
		if err != nil {
			return 0, resp.StatusCode, fmt.Errorf("malformed NDJSON response: %w", err)
		}
		l.srcModel.Add(uint64(tally.Model))
		l.srcFoldin.Add(uint64(tally.Foldin))
		l.srcKNN.Add(uint64(tally.KNN))
		return uint64(tally.Results), resp.StatusCode, nil
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, resp.StatusCode, err
	}
	return batchSize, resp.StatusCode, nil
}

// noteError records the first failure's text for the report.
func (l *loader) noteError(msg string) {
	l.errOnce.Do(func() { l.firstErr.Store(&msg) })
}

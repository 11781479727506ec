// Package serve is the model-serving daemon: the online half of the
// train/serve split that core.SaveModel/LoadScorer opened. A Server
// holds one persisted model in an atomically swappable pointer and
// answers scoring queries over HTTP (stdlib net/http only):
//
//	GET  /v1/score/{domain}  one domain's decision value and label
//	POST /v1/score/batch     {"domains": [...]} scored in one call;
//	                         Accept: application/x-ndjson streams the
//	                         results line by line (see ndjson.go)
//	POST /v1/observe         feed observed relations for a domain
//	                         outside the model into the fold-in cache
//	POST /v1/reload          re-read the model file and swap atomically
//	GET  /healthz/live       liveness: 200 whenever HTTP is served
//	GET  /healthz/ready      readiness: loaded-model identity, or 503
//	                         (code "not_ready") while a (re)load is in
//	                         flight or no model is installed
//	GET  /healthz            alias of /healthz/ready (back-compat)
//	GET  /metrics            Prometheus text exposition (internal/obsv)
//	GET  /debug/pprof/...    profiling (when Config.EnablePprof)
//
// Domains outside the model are no longer a dead end: when a caller
// has fed relations for a domain through POST /v1/observe, the scoring
// routes derive a provisional verdict through core.Scorer.ScoreObserved
// and return it with known=false, a calibrated confidence, and a
// source of "foldin" or "knn" instead of a 404. The daemon owns that
// evidence: its fold-in cache is private, bounded by FoldInMaxEntries
// and FoldInTTL. Every non-2xx /v1 response carries the structured
// ErrorBody envelope.
//
// The lifecycle is production-shaped. Reload (also triggered by SIGHUP
// in cmd/maldetect) loads the replacement model fully before swapping
// the pointer, so in-flight requests keep scoring against the old
// model and a corrupt or truncated replacement file leaves the old
// model serving with the error reported to the caller. Scoring
// endpoints sit behind a bounded-concurrency gate that sheds excess
// load with 503 + Retry-After instead of queueing unboundedly, and
// POST body reads (batch and observe) sit behind a read deadline. Shutdown
// drains in-flight requests up to a deadline before returning.
//
// The request path is engineered for zero steady-state allocations.
// Every route is one entry of a table bound in New (route): ServeHTTP
// matches the /v1/score/{domain} prefix, then probes the table's map of
// fixed paths (no ServeMux wildcard machinery), and does the method
// check, the concurrency gate and the metric attribution once for every
// route. Score results are hand-encoded into pooled buffers (encode.go;
// byte-identical to encoding/json by test), error envelopes go through
// encoding/json, and metric series are resolved once per route instead
// of per request. A retained domain's response is not even encoded per
// request: loadModel renders every retained domain's line once, before
// the generation is installed, and all three scoring routes copy it out
// (modelState).
// Batch bodies are read whole and, in the canonical shape clients send,
// scanned without encoding/json (request.go). A single-domain score
// costs 0 allocations end to end (TestHandlerZeroAlloc) and a batch a
// constant few whatever its size; scripts/alloccheck.sh gates the
// handlers against new heap escapes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/obsv"
)

// Config parameterizes a Server. The zero value needs only ModelPath.
type Config struct {
	// ModelPath is the model file written by maldetect train
	// (core.SaveModel); Reload re-reads the same path.
	ModelPath string
	// MaxInFlight bounds concurrently executing scoring requests;
	// excess requests are shed with 503 + Retry-After (default 256).
	MaxInFlight int
	// RequestTimeout is the read deadline for one POST request body,
	// batch or observe (default 5s). It does not bound the request as a
	// whole: handlers themselves are non-blocking table lookups, so the
	// body read is the only place a request can stall.
	RequestTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight requests when
	// the caller's context has no deadline of its own (default 10s).
	DrainTimeout time.Duration
	// MaxBatch bounds the domain count of one batch request (default
	// 10000); larger batches are rejected with 413. It also sets the
	// POST body cap (bodyCap).
	MaxBatch int
	// FoldInMaxEntries bounds the fold-in evidence cache behind POST
	// /v1/observe (default 65536 domains).
	FoldInMaxEntries int
	// FoldInTTL is the fold-in cache's evidence lifetime (default 15m).
	FoldInTTL time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logf, when set, receives operational log lines (reloads,
	// shutdown); nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10_000
	}
	return c
}

// bodyCap bounds a POST request body in bytes; larger bodies are
// rejected with 413 before being read further. The cap is sized so that
// any legal MaxBatch-domain batch fits: 64 + 260·MaxBatch (a DNS name
// is at most 255 bytes; quoting and a comma cost 3 more).
func (c Config) bodyCap() int64 { return 64 + 260*int64(c.MaxBatch) }

// modelState is one loaded model generation; the Server swaps whole
// states, and a handler loads the pointer once per request, so every
// response is built from one generation's scorer, fingerprint and rows.
type modelState struct {
	scorer   *core.Scorer
	loadedAt time.Time

	// rows holds every retained domain's response, rendered once at
	// load: a score is a constant of the model, and formatting it again
	// on every request was a quarter of a batch request. Row i — the
	// bytes rows[rowOff[i]:rowOff[i+1]], i being scorer.Index(domain) —
	// is appendResult's output for that domain plus a newline: the
	// GET /v1/score/{domain} body and the NDJSON line, and without the
	// newline the BatchResponse entry (TestRenderedRowsMatchEncoders).
	rows   []byte
	rowOff []uint32
}

// row returns retained domain i's pre-rendered response line.
func (st *modelState) row(i int) []byte {
	return st.rows[st.rowOff[i]:st.rowOff[i+1]]
}

// rowSizeHint is the row arena's initial capacity per domain: a row is
// about 90 bytes of framing and score around the domain name.
const rowSizeHint = 128

// renderRows builds the row table of one generation.
func renderRows(sc *core.Scorer) (rows []byte, rowOff []uint32, err error) {
	domains := sc.Domains()
	rows = make([]byte, 0, rowSizeHint*len(domains))
	rowOff = make([]uint32, 1, len(domains)+1)
	for _, d := range domains {
		res, _ := sc.Result(d)
		rows = append(appendResult(rows, d, res), '\n')
		if len(rows) > math.MaxUint32 {
			return nil, nil, fmt.Errorf("rendered responses of %d domains exceed 4 GiB", len(domains))
		}
		rowOff = append(rowOff, uint32(len(rows)))
	}
	return rows, rowOff, nil
}

// Server serves one model file over HTTP. Create with New, expose with
// Serve (or mount Handler in a test server), stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *obsv.Registry
	model atomic.Pointer[modelState]
	gate  chan struct{}

	httpSrv *http.Server
	// routes holds the fixed-path routes; score is GET
	// /v1/score/{domain}, matched by prefix, and pprof is the
	// /debug/pprof/ subtree, nil unless Config.EnablePprof.
	routes       map[string]*route
	score, pprof *route
	reloadMu     sync.Mutex // serializes Reload; requests never block on it
	// reloading is observed by the readiness probe: while a (re)load is
	// decoding the next generation, /healthz and /healthz/ready answer
	// 503 so orchestrators hold traffic, while /healthz/live stays 200.
	reloading atomic.Bool

	requests *obsv.CounterVec   // path, code
	latency  *obsv.HistogramVec // path
	inflight *obsv.Gauge
	shed     *obsv.Counter
	reloads  *obsv.CounterVec // result
	scored   *obsv.Counter
	unknown  *obsv.Counter
	modelDom *obsv.Gauge
	modelTS  *obsv.Gauge
	// modelInfo is the maldomain_model_info gauge family: the series
	// labeled with the served model's backend names is 1, superseded
	// label combinations drop to 0 on reload. lastInfo remembers the
	// currently-1 series; install (serialized by reloadMu or startup)
	// zeroes it before publishing the new one.
	modelInfo *obsv.GaugeVec
	lastInfo  *obsv.Gauge

	// foldin is the evidence cache behind POST /v1/observe and the
	// unknown-domain fallback on every scoring route.
	foldin        *core.FoldInCache
	foldinObs     *obsv.Counter
	foldinEntries *obsv.Gauge
	foldinEvicted *obsv.Counter
	foldinExpired *obsv.Counter
	foldinScores  *obsv.CounterVec // source
	// scoredFoldin and scoredKNN are foldinScores' two live series,
	// resolved once so the hot path never builds a label key.
	scoredFoldin *obsv.Counter
	scoredKNN    *obsv.Counter
}

// New loads the model at cfg.ModelPath and returns a ready Server. A
// missing or corrupt initial model is a startup error: a daemon that
// never had a model has nothing to keep serving.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obsv.NewRegistry()
	s := &Server{
		cfg:  cfg,
		reg:  reg,
		gate: make(chan struct{}, cfg.MaxInFlight),

		requests: reg.CounterVec("maldomain_http_requests_total",
			"HTTP requests served, by route and status code.", "path", "code"),
		latency: reg.HistogramVec("maldomain_http_request_seconds",
			"HTTP request latency, by route.", "path"),
		inflight: reg.Gauge("maldomain_http_inflight",
			"Scoring requests currently executing."),
		shed: reg.Counter("maldomain_http_shed_total",
			"Scoring requests shed with 503 at the concurrency gate."),
		reloads: reg.CounterVec("maldomain_model_reloads_total",
			"Model reload attempts, by result.", "result"),
		scored: reg.Counter("maldomain_scores_total",
			"Domains scored (single and batch, known domains only)."),
		unknown: reg.Counter("maldomain_score_unknown_total",
			"Score lookups for domains outside the model."),
		modelDom: reg.Gauge("maldomain_model_domains",
			"Retained domain count of the currently served model."),
		modelTS: reg.Gauge("maldomain_model_loaded_timestamp_seconds",
			"Unix time the current model generation was loaded."),
		modelInfo: reg.GaugeVec("maldomain_model_info",
			"Backend identity of the currently served model (1 = serving).",
			"embedder", "classifier"),
		foldinObs: reg.Counter("maldomain_foldin_observations_total",
			"Observe calls accepted into the fold-in evidence cache."),
		foldinEntries: reg.Gauge("maldomain_foldin_cache_entries",
			"Domains currently holding evidence in the fold-in cache."),
		foldinEvicted: reg.Counter("maldomain_foldin_evictions_total",
			"Fold-in cache entries evicted by the size bound."),
		foldinExpired: reg.Counter("maldomain_foldin_expired_total",
			"Fold-in cache entries dropped by TTL expiry."),
		foldinScores: reg.CounterVec("maldomain_foldin_scores_total",
			"Domains scored through the fold-in path, by verdict source.", "source"),
	}
	s.scoredFoldin = s.foldinScores.With(core.SourceFoldin)
	s.scoredKNN = s.foldinScores.With(core.SourceKNN)
	s.foldin = core.NewFoldInCache(core.FoldInConfig{
		MaxEntries: cfg.FoldInMaxEntries,
		TTL:        cfg.FoldInTTL,
	})
	reg.CounterFunc("maldomain_foldin_recomputes_total",
		"Fold-in scores that missed the memoized verdict and recomputed it; against maldomain_foldin_scores_total, the cache's miss ratio.",
		s.foldin.Recomputes)
	s.bindRoutes()
	st, err := s.loadModel()
	if err != nil {
		return nil, fmt.Errorf("serve: loading initial model: %w", err)
	}
	s.install(st)
	s.httpSrv = &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// loadModel reads cfg.ModelPath into a fresh modelState, row table
// included, without touching the served pointer.
func (s *Server) loadModel() (*modelState, error) {
	sc, err := core.LoadScorerFile(s.cfg.ModelPath)
	if err != nil {
		return nil, err
	}
	rows, rowOff, err := renderRows(sc)
	if err != nil {
		return nil, err
	}
	return &modelState{scorer: sc, loadedAt: time.Now(), rows: rows, rowOff: rowOff}, nil
}

// install publishes a loaded state and its gauges.
func (s *Server) install(st *modelState) {
	s.model.Store(st)
	s.modelDom.Set(float64(len(st.scorer.Domains())))
	s.modelTS.Set(float64(st.loadedAt.UnixNano()) / 1e9)
	if s.lastInfo != nil {
		s.lastInfo.Set(0)
	}
	s.lastInfo = s.modelInfo.With(st.scorer.EmbedderName(), st.scorer.ClassifierName())
	s.lastInfo.Set(1)
}

// Reload re-reads the model file and swaps it in atomically. The new
// model is fully decoded and validated before the pointer moves, so
// concurrent requests always score against a complete model; on any
// error the previous model keeps serving and the error is returned.
// Concurrent Reload calls are serialized.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloading.Store(true)
	defer s.reloading.Store(false)
	st, err := s.loadModel()
	if err != nil {
		s.reloads.With("error").Inc()
		s.logf("reload failed, keeping current model: %v", err)
		return err
	}
	s.install(st)
	s.reloads.With("ok").Inc()
	s.logf("reloaded model %s: %d domains, fingerprint %s",
		s.cfg.ModelPath, len(st.scorer.Domains()), st.scorer.Fingerprint())
	return nil
}

// Scorer returns the currently served model generation. The scorer is
// immutable; it remains valid (but possibly superseded) after a
// reload.
func (s *Server) Scorer() *core.Scorer {
	return s.model.Load().scorer
}

// Handler returns the daemon's full route table, for tests and
// embedding.
func (s *Server) Handler() http.Handler { return s }

// Serve accepts connections on l until Shutdown. It returns nil after
// a clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish. When ctx carries no deadline, Config.DrainTimeout
// bounds the wait; on deadline expiry remaining connections are closed
// and the context error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	s.logf("shutting down, draining in-flight requests")
	return s.httpSrv.Shutdown(ctx)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ---- routing and instrumentation ----

// route is one entry of the daemon's route table: the one method it
// answers, whether it sits behind the concurrency gate, its request
// instrumentation (nil for /metrics and pprof, which are not counted),
// and the handler, which returns the status it wrote.
type route struct {
	method  string
	gated   bool
	metrics *routeMetrics
	handle  func(w http.ResponseWriter, r *http.Request) int
}

// bindRoutes builds the route table once, at construction.
func (s *Server) bindRoutes() {
	metricsH := s.reg.Handler()
	healthz := &route{http.MethodGet, false, s.newRouteMetrics("/healthz"), s.handleHealthz}
	s.score = &route{http.MethodGet, true, s.newRouteMetrics("/v1/score"), s.handleScore}
	s.routes = map[string]*route{
		"/v1/score/batch": {http.MethodPost, true, s.newRouteMetrics("/v1/score/batch"), s.handleBatch},
		"/v1/observe":     {http.MethodPost, true, s.newRouteMetrics("/v1/observe"), s.handleObserve},
		"/v1/reload":      {http.MethodPost, false, s.newRouteMetrics("/v1/reload"), s.handleReload},
		"/healthz":        healthz,
		"/healthz/ready":  healthz,
		"/healthz/live":   {http.MethodGet, false, s.newRouteMetrics("/healthz/live"), handleLive},
		"/metrics": {http.MethodGet, false, nil, func(w http.ResponseWriter, r *http.Request) int {
			metricsH.ServeHTTP(w, r)
			return http.StatusOK
		}},
	}
	if s.cfg.EnablePprof {
		s.pprof = &route{http.MethodGet, false, nil, handlePprof}
	}
}

// lookup returns the route serving path, or nil. The single-score
// prefix is matched before the map probe, so the hottest route never
// pays for hashing its path.
func (s *Server) lookup(path string) *route {
	if rest, ok := strings.CutPrefix(path, scorePrefix); ok && rest != "" && rest != "batch" {
		return s.score
	}
	if rt := s.routes[path]; rt != nil {
		return rt
	}
	if s.pprof != nil && strings.HasPrefix(path, "/debug/pprof/") {
		return s.pprof
	}
	return nil
}

// scorePrefix precedes the domain in GET /v1/score/{domain}.
const scorePrefix = "/v1/score/"

// ServeHTTP is the daemon's router: a table lookup instead of
// http.ServeMux, because the mux's wildcard matching allocates per
// request. Routing, the method check, the concurrency gate, and metric
// attribution are all plain function calls on this path, done here
// once for every route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := s.lookup(r.URL.Path)
	if rt == nil {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			noRoute(w, r.URL.Path)
			return
		}
		http.NotFound(w, r)
		return
	}
	start := time.Now()
	var code int
	switch {
	case r.Method != rt.method:
		code = methodNotAllowed(w, rt.method)
	case !rt.gated:
		code = rt.handle(w, r)
	case !s.admit(w):
		code = http.StatusServiceUnavailable
	default:
		code = rt.handle(w, r)
		s.release()
	}
	if rt.metrics != nil {
		rt.metrics.observe(start, code)
	}
}

// routeMetrics is one route's pre-resolved instrumentation: the
// latency series is bound at construction and counter series are
// cached per status code after first use, so steady-state requests
// never rebuild a label key or take the registry mutex.
type routeMetrics struct {
	path   string
	vec    *obsv.CounterVec
	lat    *obsv.Histogram
	byCode [nCodeSlots]atomic.Pointer[obsv.Counter]
}

func (s *Server) newRouteMetrics(path string) *routeMetrics {
	return &routeMetrics{path: path, vec: s.requests, lat: s.latency.With(path)}
}

// Slots for the status codes the scoring routes emit; anything else
// falls back to a labeled lookup.
const nCodeSlots = 7

func codeSlot(code int) int {
	switch code {
	case 200:
		return 0
	case 400:
		return 1
	case 404:
		return 2
	case 405:
		return 3
	case 413:
		return 4
	case 500:
		return 5
	case 503:
		return 6
	}
	return -1
}

// observe records one finished request. Racing first uses of a code
// slot are benign: CounterVec.With is idempotent per label tuple, so
// every racer caches the same counter.
func (m *routeMetrics) observe(start time.Time, code int) {
	m.lat.Observe(time.Since(start).Seconds())
	slot := codeSlot(code)
	if slot < 0 {
		m.vec.With(m.path, statusText(code)).Inc()
		return
	}
	c := m.byCode[slot].Load()
	if c == nil {
		c = m.vec.With(m.path, statusText(code))
		m.byCode[slot].Store(c)
	}
	c.Inc()
}

// admit claims a concurrency-gate slot, or sheds the request with
// 503 + Retry-After and reports false. Shedding instead of queueing
// keeps overload behavior fast-failing rather than building an
// unbounded backlog of slow requests.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.gate <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: ErrorDetail{
			Code: codeCapacity, Message: "server at capacity", RetryAfterMS: 1000,
		}})
		return false
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.gate
}

func methodNotAllowed(w http.ResponseWriter, allow string) int {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
		"method not allowed, use "+allow)
	return http.StatusMethodNotAllowed
}

// ---- response writing ----

// Content-Type header values shared across requests; assigning a
// preallocated slice into the header map avoids the per-request
// allocation http.Header.Set would make.
var (
	ctJSON   = []string{"application/json"}
	ctNDJSON = []string{NDJSONContentType}
)

// writeBody sends one fully encoded response.
//
//alloccheck:hot
func writeBody(w http.ResponseWriter, code int, ct []string, body []byte) {
	w.Header()["Content-Type"] = ct
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// ErrorBody is the envelope every non-2xx /v1 response carries. The
// shape is part of the wire contract (docs/api.md): code is a stable
// machine-readable string, message is human-readable detail, and
// retry_after_ms appears only on 503 shed responses.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the inner object of ErrorBody.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// The stable error codes the /v1 routes emit. These strings are wire
// contract: additive-only within v1.
const (
	codeUnknownDomain    = "unknown_domain"
	codeBadRequest       = "bad_request"
	codeOverLimit        = "over_batch_limit"
	codeCapacity         = "capacity"
	codeMethodNotAllowed = "method_not_allowed"
	codeNotFound         = "not_found"
	codeNotReady         = "not_ready"
)

// writeError sends the ErrorBody envelope with the given status. Kept
// out of line so the envelope's escape to encoding/json stays out of
// the hot handlers that call it on their error paths.
//
//go:noinline
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// writeJSON encodes the responses that are not score results: error
// envelopes and the control-plane bodies (observe, reload, healthz).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = ctJSON
	w.WriteHeader(code)
	// Handlers marshal small fixed-shape values; an encode failure here
	// means the response is already half-written, so there is nothing
	// better to do than stop.
	_ = json.NewEncoder(w).Encode(v)
}

// ---- scoring handlers ----

// ScoreResponse is one domain's verdict: the body of GET
// /v1/score/{domain}, an entry of BatchResponse.Results, and an NDJSON
// result line. Known reports whether the domain is in the model's
// decision table; Confidence and Source qualify the verdict (source
// "model" at confidence 1 for retained domains, "foldin" or "knn" with
// a calibrated confidence for domains scored from observed relations).
// Source is empty — and omitted on the wire — only in a batch entry for
// a domain the daemon had nothing at all to say about; the single-score
// route answers that case with a 404.
type ScoreResponse struct {
	Domain     string  `json:"domain"`
	Score      float64 `json:"score"`
	Label      int     `json:"label"`
	Known      bool    `json:"known"`
	Confidence float64 `json:"confidence"`
	Source     string  `json:"source,omitempty"`
}

// handleScore is the single-domain hot path: one index lookup and the
// domain's pre-rendered row written as is (or, for domains outside the
// model, one fold-in cache probe and one pooled buffer encode), zero
// steady-state allocations.
//
//alloccheck:hot
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) int {
	domain := r.URL.Path[len(scorePrefix):]
	if strings.IndexByte(domain, '/') >= 0 {
		// {domain} is a single path segment; deeper paths are not
		// routes.
		return noRoute(w, r.URL.Path)
	}
	st := s.model.Load()
	if i, ok := st.scorer.Index(domain); ok {
		s.scored.Inc()
		writeBody(w, http.StatusOK, ctJSON, st.row(i))
		return http.StatusOK
	}
	res, ok := s.foldin.Score(st.scorer, domain, time.Now())
	if !ok {
		s.unknown.Inc()
		writeError(w, http.StatusNotFound, codeUnknownDomain, unknownDomainMessage(domain))
		return http.StatusNotFound
	}
	s.countFoldin(res.Source)
	buf := getBuf()
	b := append(appendResult((*buf)[:0], domain, res), '\n')
	writeBody(w, http.StatusOK, ctJSON, b)
	*buf = b
	putBuf(buf)
	return http.StatusOK
}

// countFoldin attributes one fold-in verdict to its source series.
func (s *Server) countFoldin(source string) {
	if source == core.SourceKNN {
		s.scoredKNN.Inc()
	} else {
		s.scoredFoldin.Inc()
	}
}

// unknownDomainMessage renders the 404 body text for one domain,
// matching core.Scorer.Lookup's error string. Kept out of handleScore
// so its allocations stay off the gated hot path.
//
//go:noinline
func unknownDomainMessage(domain string) string {
	return strconv.Quote(domain) + ": " + core.ErrUnknownDomain.Error()
}

// noRoute answers a /v1 path no route serves with the not_found
// envelope; out of line for the same reason as unknownDomainMessage.
//
//go:noinline
func noRoute(w http.ResponseWriter, path string) int {
	writeError(w, http.StatusNotFound, codeNotFound, "no such route: "+path)
	return http.StatusNotFound
}

// BatchRequest is the body of POST /v1/score/batch.
type BatchRequest struct {
	Domains []string `json:"domains"`
}

// BatchResponse is the body of POST /v1/score/batch: one result per
// requested domain, in request order.
type BatchResponse struct {
	Results     []ScoreResponse `json:"results"`
	Fingerprint string          `json:"fingerprint"`
}

// handleBatch reads, decodes, validates, scores, and encodes one batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	body, code := s.readBody(w, r, "batch")
	if body == nil {
		return code
	}
	scratch := domainsPool.Get().(*[]string)
	defer func() {
		clear(*scratch)
		domainsPool.Put(scratch)
	}()
	domains, err := decodeBatch(scratch, *body, s.cfg.MaxBatch)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad batch request: "+err.Error())
		return http.StatusBadRequest
	}
	if len(domains) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, codeOverLimit,
			fmt.Sprintf("batch exceeds limit of %d domains", s.cfg.MaxBatch))
		return http.StatusRequestEntityTooLarge
	}
	st := s.model.Load()
	if wantsNDJSON(r.Header.Get("Accept")) {
		return s.writeBatchNDJSON(w, st, domains)
	}
	return s.writeBatchJSON(w, st, domains)
}

// batchCounts tallies one batch's retained and no-evidence domains, so
// the shared counters take one Add per request instead of one per
// domain.
type batchCounts struct{ known, unknown uint64 }

// appendResultLine appends domain's newline-terminated result: the
// pre-rendered row for a retained domain; for any other, the fold-in
// verdict when there is evidence, else the zero entry, encoded on the
// spot.
func (s *Server) appendResultLine(b []byte, st *modelState, domain string, now time.Time, n *batchCounts) []byte {
	if i, ok := st.scorer.Index(domain); ok {
		n.known++
		return append(b, st.row(i)...)
	}
	var res core.Result
	if fr, ok := s.foldin.Score(st.scorer, domain, now); ok {
		res = fr
		s.countFoldin(res.Source)
	} else {
		n.unknown++
	}
	return append(appendResult(b, domain, res), '\n')
}

// writeBatchJSON encodes the buffered BatchResponse document into one
// pooled buffer: byte-identical to encoding/json on the BatchResponse
// struct, without the per-request encoder machinery.
func (s *Server) writeBatchJSON(w http.ResponseWriter, st *modelState, domains []string) int {
	now := time.Now()
	buf := getBuf()
	b := append((*buf)[:0], `{"results":[`...)
	var n batchCounts
	for _, d := range domains {
		// Each line's newline becomes the comma after the entry.
		b = s.appendResultLine(b, st, d, now, &n)
		b[len(b)-1] = ','
	}
	if len(domains) > 0 {
		b = b[:len(b)-1]
	}
	b = append(b, `],"fingerprint":`...)
	b = appendJSONString(b, st.scorer.Fingerprint())
	b = append(b, '}', '\n')
	s.scored.Add(n.known)
	s.unknown.Add(n.unknown)
	writeBody(w, http.StatusOK, ctJSON, b)
	*buf = b
	putBuf(buf)
	return http.StatusOK
}

// ndjsonFlushBytes is the buffered-bytes threshold that triggers a
// write+flush, bounding the daemon's memory per streamed batch. It is
// sized so that a batch of a few hundred domains (a line is ~110 bytes)
// leaves in one write: a second write+flush costs such a request more
// than scoring it does.
const ndjsonFlushBytes = 64 << 10

// writeBatchNDJSON streams the batch as NDJSON: a fingerprint header
// line, then one result line per domain, written and flushed whenever
// ndjsonFlushBytes have gathered so the whole response never exists in
// memory.
func (s *Server) writeBatchNDJSON(w http.ResponseWriter, st *modelState, domains []string) int {
	rc := http.NewResponseController(w)
	w.Header()["Content-Type"] = ctNDJSON
	w.WriteHeader(http.StatusOK)
	buf := getBuf()
	b := append((*buf)[:0], `{"fingerprint":`...)
	b = appendJSONString(b, st.scorer.Fingerprint())
	b = append(b, '}', '\n')

	now := time.Now()
	var n batchCounts
	for _, d := range domains {
		b = s.appendResultLine(b, st, d, now, &n)
		if len(b) >= ndjsonFlushBytes {
			if _, err := w.Write(b); err != nil {
				// Client went away mid-stream; stop scoring for it.
				b = b[:0]
				break
			}
			_ = rc.Flush()
			b = b[:0]
		}
	}
	if len(b) > 0 {
		_, _ = w.Write(b)
		_ = rc.Flush()
	}
	s.scored.Add(n.known)
	s.unknown.Add(n.unknown)
	*buf = b
	putBuf(buf)
	return http.StatusOK
}

// ---- fold-in observation ----

// ObserveRelation is one observed edge in an ObserveRequest: the
// domain co-occurred with a retained neighbor in the named behavioral
// view. Weight is the co-occurrence strength; values ≤ 0 count as 1,
// and values above maxObserveWeight are rejected.
type ObserveRelation struct {
	View     string  `json:"view"` // "query", "ip", or "time"
	Neighbor string  `json:"neighbor"`
	Weight   float64 `json:"weight"`
}

// maxObserveWeight bounds one observed relation's weight. The fold-in
// embedding is a per-view weighted mean, so scaling a domain's weights
// changes nothing; unbounded weights, though, overflow the weighted sums
// to ±Inf and turn the verdict into NaN, which JSON cannot carry.
const maxObserveWeight = 1e6

// ObserveRequest is the body of POST /v1/observe.
type ObserveRequest struct {
	Domain    string            `json:"domain"`
	Relations []ObserveRelation `json:"relations"`
}

// ObserveResponse is the body of a successful POST /v1/observe.
// Relations counts the relations accepted from this request; Entries
// is the fold-in cache's domain count after the observation.
type ObserveResponse struct {
	Domain    string `json:"domain"`
	Relations int    `json:"relations"`
	Entries   int    `json:"entries"`
}

// handleObserve feeds one domain's observed relations into the fold-in
// cache. This is a cold control-plane-shaped path (it allocates); the
// hot path is the cached Score probe the scoring routes make.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) int {
	body, code := s.readBody(w, r, "observe")
	if body == nil {
		return code
	}
	var req ObserveRequest
	err := json.Unmarshal(*body, &req)
	putBuf(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad observe request: "+err.Error())
		return http.StatusBadRequest
	}
	if req.Domain == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "observe needs a domain")
		return http.StatusBadRequest
	}
	if len(req.Relations) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "observe needs at least one relation")
		return http.StatusBadRequest
	}
	rels := make([]core.Relation, len(req.Relations))
	for i, rel := range req.Relations {
		v, ok := viewByName(rel.View)
		if !ok {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("relation %d: unknown view %q (use query, ip, or time)", i, rel.View))
			return http.StatusBadRequest
		}
		if rel.Neighbor == "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("relation %d: missing neighbor", i))
			return http.StatusBadRequest
		}
		if rel.Weight > maxObserveWeight {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("relation %d: weight %g exceeds %g", i, rel.Weight, float64(maxObserveWeight)))
			return http.StatusBadRequest
		}
		rels[i] = core.Relation{View: v, Neighbor: rel.Neighbor, Weight: rel.Weight}
	}
	evicted, expired := s.foldin.Observe(req.Domain, rels, time.Now())
	s.foldinObs.Inc()
	s.foldinEvicted.Add(uint64(evicted))
	s.foldinExpired.Add(uint64(expired))
	s.foldinEntries.Set(float64(s.foldin.Len()))
	writeJSON(w, http.StatusOK, ObserveResponse{
		Domain:    req.Domain,
		Relations: len(rels),
		Entries:   s.foldin.Len(),
	})
	return http.StatusOK
}

// viewByName maps the wire names of the behavioral views to their
// bipartite identifiers.
func viewByName(name string) (bipartite.View, bool) {
	switch name {
	case "query":
		return bipartite.ViewQuery, true
	case "ip":
		return bipartite.ViewIP, true
	case "time":
		return bipartite.ViewTime, true
	}
	return 0, false
}

// ---- control-plane handlers ----

// ReloadResponse is the body of a successful POST /v1/reload.
type ReloadResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Domains     int       `json:"domains"`
	Embedder    string    `json:"embedder"`
	Classifier  string    `json:"classifier"`
	LoadedAt    time.Time `json:"loaded_at"`
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) int {
	if err := s.Reload(); err != nil {
		// The old model is still serving; report both facts.
		writeJSON(w, http.StatusInternalServerError, map[string]string{
			"error":   err.Error(),
			"serving": s.Scorer().Fingerprint(),
		})
		return http.StatusInternalServerError
	}
	st := s.model.Load()
	writeJSON(w, http.StatusOK, ReloadResponse{
		Fingerprint: st.scorer.Fingerprint(),
		Domains:     len(st.scorer.Domains()),
		Embedder:    st.scorer.EmbedderName(),
		Classifier:  st.scorer.ClassifierName(),
		LoadedAt:    st.loadedAt,
	})
	return http.StatusOK
}

// HealthResponse is the body of GET /healthz and GET /healthz/ready
// when the server is ready to score.
type HealthResponse struct {
	Status      string    `json:"status"`
	Domains     int       `json:"domains"`
	Fingerprint string    `json:"fingerprint"`
	Embedder    string    `json:"embedder"`
	Classifier  string    `json:"classifier"`
	LoadedAt    time.Time `json:"loaded_at"`
}

// LivenessResponse is the body of GET /healthz/live.
type LivenessResponse struct {
	Status string `json:"status"`
}

// handleLive is the liveness probe: it answers 200 whenever the
// process can serve HTTP at all, deliberately ignoring model state.
// Restarting a daemon because its model reload is slow would destroy
// the very generation still serving traffic — readiness, not liveness,
// gates that.
func handleLive(w http.ResponseWriter, _ *http.Request) int {
	writeJSON(w, http.StatusOK, LivenessResponse{Status: "alive"})
	return http.StatusOK
}

// handleHealthz is the readiness probe, served at both /healthz
// (back-compat) and /healthz/ready: 200 with the served model's
// identity when ready, 503 with the structured error envelope (code
// "not_ready") while a (re)load is in flight or no model generation is
// installed.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	st := s.model.Load()
	switch {
	case s.reloading.Load():
		writeError(w, http.StatusServiceUnavailable, codeNotReady, "model (re)load in flight")
		return http.StatusServiceUnavailable
	case st == nil:
		writeError(w, http.StatusServiceUnavailable, codeNotReady, "no model loaded")
		return http.StatusServiceUnavailable
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Domains:     len(st.scorer.Domains()),
		Fingerprint: st.scorer.Fingerprint(),
		Embedder:    st.scorer.EmbedderName(),
		Classifier:  st.scorer.ClassifierName(),
		LoadedAt:    st.loadedAt,
	})
	return http.StatusOK
}

func handlePprof(w http.ResponseWriter, r *http.Request) int {
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
	return http.StatusOK
}

// Package core assembles the paper's end-to-end detection system
// (Figure 2): DNS pre-processing, behavioral modeling via bipartite
// graphs and one-mode projections, feature learning, classification,
// and X-Means cluster mining. The feature-learning and classification
// stages are pluggable backends resolved by name from the registry in
// registry.go (defaults: LINE + SVM, the paper's pipeline). The root
// package maldomain re-exports this API; see the repository README for
// usage.
//
//maldlint:deterministic
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/dhcp"
	"repro/internal/etld"
	"repro/internal/line"
	"repro/internal/obsv"
	"repro/internal/pipeline"
	"repro/internal/svm"
	"repro/internal/xmeans"
)

// Config parameterizes a Detector. The zero value plus Start/Days is
// usable: every knob has the paper's default.
type Config struct {
	// Start anchors the measurement window; Days is its length.
	Start time.Time
	Days  int
	// DHCP, when set, pins client IPs to device identities.
	DHCP *dhcp.Resolver
	// Suffixes is the public-suffix table (default etld.Default).
	Suffixes *etld.Table

	// Prune is the §4.1 graph-reduction policy (default: >50% fan-out
	// and single-host rules).
	Prune bipartite.PruneConfig
	// MinSimilarity drops projection edges below this Jaccard weight
	// (default 0.02).
	MinSimilarity float64
	// TimeMinSimilarity overrides MinSimilarity for the temporal view
	// when positive. Minute-overlap weights are naturally much smaller
	// than host/IP overlaps, so the temporal projection usually needs a
	// lower threshold to retain any structure.
	TimeMinSimilarity float64
	// MaxAttrDegree enables stop-attribute filtering during projection;
	// 0 means no limit.
	MaxAttrDegree int

	// EmbedDim is the per-view embedding size k; the combined feature
	// vector has 3k dimensions (default 32).
	EmbedDim int
	// EmbedSamples overrides the embedder's SGD sample count (0 = auto).
	EmbedSamples int
	// EmbedOrder selects the LINE proximity objective (default
	// OrderBoth). Only the "line" embedder consults it.
	EmbedOrder line.Order

	// SVM is the classifier configuration (defaults: RBF, C=0.09,
	// γ=0.06 per §6.2). Only the "svm" classification backend (and the
	// ensembles wrapping it) consults it.
	SVM svm.Config

	// Embedder selects the feature-learning backend by registered name
	// ("" = "line"). See RegisterEmbedder and the registry contract in
	// registry.go.
	Embedder string
	// Classifier selects the classification backend by registered name
	// ("" = "svm").
	Classifier string
	// Views selects the named view set classifiers train over ("" =
	// "all", the three-view concatenation of §6.1). All three views are
	// always embedded and persisted regardless; the selection only
	// shapes classifier feature vectors.
	Views string

	// Workers bounds parallelism in projection (0 = all cores); the
	// model is byte-identical at any count.
	Workers int
	// Seed drives every stochastic stage.
	Seed uint64

	// EmbedInit, when set, is consulted at the start of each embedding
	// stage to warm-start LINE: it receives the view and the retained
	// domain list and returns one initial vector per domain (nil rows
	// fall back to random initialization), or nil for a cold start. The
	// streaming mode uses it to seed each remodel with the previous
	// window's vectors for persisting domains.
	EmbedInit func(view bipartite.View, domains []string) [][]float64

	// Metrics, when set, receives build instrumentation: each stage's
	// wall time lands in the maldomain_build_stage_seconds{stage=...}
	// histogram, maldomain_builds_total counts completed builds, and
	// maldomain_build_retained_domains records the last build's vertex
	// count. The serving daemon (internal/serve) exposes the same
	// registry vocabulary on /metrics, so batch builds and the online
	// scoring path report through one namespace.
	Metrics *obsv.Registry
}

func (c Config) withDefaults() Config {
	if c.Suffixes == nil {
		c.Suffixes = etld.Default
	}
	if c.Prune.MaxHostFrac == 0 && c.Prune.MinHosts == 0 {
		c.Prune = bipartite.DefaultPrune
	}
	if c.MinSimilarity == 0 {
		c.MinSimilarity = 0.02
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
	if c.EmbedOrder == 0 {
		c.EmbedOrder = line.OrderBoth
	}
	if c.Days <= 0 {
		c.Days = 31
	}
	return c
}

// Detector is the end-to-end system. Feed observations with Consume,
// then call BuildModel once; afterwards feature vectors, classifiers and
// clusterings are available. A Detector is not safe for concurrent use.
type Detector struct {
	cfg  Config
	proc *pipeline.Processor

	built       bool
	graphs      map[bipartite.View]*bipartite.Graph
	projections map[bipartite.View]*bipartite.Projection
	embeddings  map[bipartite.View]*Embedding
	domains     []string
	index       map[string]int
	report      BuildReport
}

// ModelStats summarizes the built model for reports and logs.
type ModelStats struct {
	TotalQueries    int
	Devices         int
	ObservedE2LDs   int
	RetainedE2LDs   int
	ProjectionEdges map[bipartite.View]int
}

// NewDetector returns a Detector for cfg.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg: cfg,
		proc: pipeline.NewProcessor(pipeline.Config{
			Start:    cfg.Start,
			Days:     cfg.Days,
			DHCP:     cfg.DHCP,
			Suffixes: cfg.Suffixes,
		}),
	}
}

// NewDetectorWith returns a Detector that models the aggregates already
// accumulated in proc instead of starting from an empty pipeline. The
// processor must have been built with the same Start/Suffixes the
// detector config describes (the streaming mode merges per-day
// processors and hands the result here, skipping any replay of raw
// observations). The detector takes ownership of proc; callers must not
// keep consuming into it.
func NewDetectorWith(cfg Config, proc *pipeline.Processor) *Detector {
	return &Detector{cfg: cfg.withDefaults(), proc: proc}
}

// Lookup conventions. The surface distinguishes two failure shapes and
// keeps them consistent across Detector, Classifier, and Scorer:
//
//   - Per-domain lookups on the hot path — FeatureVector, Score,
//     Predict, ScoreBatch — use the (value, ok) comma-ok form. An
//     unknown domain is an expected, per-item outcome (most domains a
//     deployment is asked about were never retained), not an
//     exceptional condition, and the comma-ok form keeps these calls
//     allocation-free.
//   - Whole-call failures — using an accessor before BuildModel,
//     building twice, ending up with an empty vertex set — return
//     errors, always wrapping one of the sentinels below so callers can
//     errors.Is them.
//
// Scorer.Lookup bridges the two for callers that need an error value
// for the unknown-domain case (the serving layer maps it to HTTP 404):
// it reports the same condition as ok=false, wrapped around
// ErrUnknownDomain.
var (
	ErrAlreadyBuilt = errors.New("core: model already built")
	ErrNotBuilt     = errors.New("core: call BuildModel first")
	ErrNoDomains    = errors.New("core: no domains survived pruning")
	// ErrUnknownDomain reports a per-domain lookup for a domain outside
	// the model's retained vertex set. Only the error-returning lookup
	// forms (Scorer.Lookup) wrap it; the comma-ok forms report the same
	// condition as ok=false.
	ErrUnknownDomain = errors.New("core: domain not in model")
)

// Consume folds one joined DNS observation into the pipeline aggregates.
// It must not be called after BuildModel.
func (d *Detector) Consume(in pipeline.Input) {
	d.proc.Consume(in)
}

// Processor exposes the underlying pipeline aggregates (read-only), for
// the Exposure baseline and traffic reporting.
func (d *Detector) Processor() *pipeline.Processor { return d.proc }

// Config returns the detector's effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// BuildModel runs behavioral modeling and feature learning as a
// sequence of named stages (see stages.go): bipartite graph
// construction with pruning, the three one-mode projections, and one
// LINE embedding per view. Per-stage timings and counts are recorded
// and available through BuildReport afterwards.
func (d *Detector) BuildModel() error {
	if d.built {
		return ErrAlreadyBuilt
	}
	a, report, err := d.runBuild(d.buildStages())
	if err != nil {
		return err
	}
	d.graphs = a.graphs
	d.domains = a.domains
	d.index = a.index
	d.projections = a.projections
	d.embeddings = a.embeddings
	d.report = report
	d.built = true
	return nil
}

// BuildReport returns the per-stage timing and size report of the
// BuildModel run.
func (d *Detector) BuildReport() (BuildReport, error) {
	if !d.built {
		return BuildReport{}, ErrNotBuilt
	}
	return d.report, nil
}

// Stats summarizes the built model.
func (d *Detector) Stats() (ModelStats, error) {
	if !d.built {
		return ModelStats{}, ErrNotBuilt
	}
	s := ModelStats{
		TotalQueries:    d.proc.TotalQueries(),
		Devices:         d.proc.DeviceCount(),
		ObservedE2LDs:   len(d.proc.Stats()),
		RetainedE2LDs:   len(d.domains),
		ProjectionEdges: make(map[bipartite.View]int, 3),
	}
	for v, p := range d.projections {
		s.ProjectionEdges[v] = len(p.Edges)
	}
	return s, nil
}

// Domains returns the retained (post-pruning) domain vertex set, sorted.
func (d *Detector) Domains() ([]string, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	return d.domains, nil
}

// Graph returns one of the three bipartite graphs.
func (d *Detector) Graph(v bipartite.View) (*bipartite.Graph, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	return d.graphs[v], nil
}

// Projection returns one of the three one-mode projections.
func (d *Detector) Projection(v bipartite.View) (*bipartite.Projection, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	return d.projections[v], nil
}

// Embedding returns one view's trained embedding. The result is the
// detector's live model state; treat it as read-only.
func (d *Detector) Embedding(v bipartite.View) (*Embedding, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	return d.embeddings[v], nil
}

// FeatureVector returns the domain's feature representation built from
// the requested views, concatenated in the given order (§6.1 uses all
// three: [V1..Vk | Vk+1..V2k | V2k+1..V3k]). ok is false for domains not
// in the retained vertex set.
func (d *Detector) FeatureVector(domain string, views ...bipartite.View) ([]float64, bool) {
	if !d.built {
		return nil, false
	}
	i, ok := d.index[domain]
	if !ok {
		return nil, false
	}
	if len(views) == 0 {
		views = bipartite.Views
	}
	out := make([]float64, 0, len(views)*d.cfg.EmbedDim)
	for _, v := range views {
		out = append(out, d.embeddings[v].Vectors[i]...)
	}
	return out, true
}

// FeatureMatrix builds vectors for a slice of domains, skipping ones not
// retained; it returns the matrix and the corresponding kept domains.
// Like its sibling accessors it returns ErrNotBuilt before BuildModel.
func (d *Detector) FeatureMatrix(domains []string, views ...bipartite.View) ([][]float64, []string, error) {
	if !d.built {
		return nil, nil, ErrNotBuilt
	}
	var X [][]float64
	var kept []string
	for _, dom := range domains {
		if v, ok := d.FeatureVector(dom, views...); ok {
			X = append(X, v)
			kept = append(kept, dom)
		}
	}
	return X, kept, nil
}

// TrainClassifier fits the configured classification backend (default:
// the SVM of §6.2) on labeled domains (label 1 = malicious). Domains
// not in the retained set are skipped; Classifier.Used reports which
// training domains were actually used. When no views are passed
// explicitly, the configured named view set (Config.Views) selects
// them.
func (d *Detector) TrainClassifier(domains []string, labels []int, views ...bipartite.View) (*Classifier, error) {
	return d.TrainClassifierNamed("", domains, labels, views...)
}

// TrainClassifierNamed is TrainClassifier with an explicit backend
// selection: it trains the classification backend registered under
// name ("" = the configured Config.Classifier) without rebuilding the
// detector, so backend ablations can sweep classifiers over one set of
// embeddings. Everything else — view resolution, label handling, the
// backend's own configuration (e.g. Config.SVM) — behaves exactly like
// TrainClassifier.
func (d *Detector) TrainClassifierNamed(name string, domains []string, labels []int, views ...bipartite.View) (*Classifier, error) {
	if !d.built {
		return nil, ErrNotBuilt
	}
	if len(domains) != len(labels) {
		return nil, fmt.Errorf("core: %d domains vs %d labels", len(domains), len(labels))
	}
	sel := viewsOrAll(views)
	if len(views) == 0 {
		var err error
		if sel, err = resolveViewSet(d.cfg); err != nil {
			return nil, err
		}
	}
	cfg := d.cfg
	if name != "" {
		cfg.Classifier = name
	}
	clf, err := newClassifier(cfg)
	if err != nil {
		return nil, err
	}
	var X [][]float64
	var y []int
	var used []string
	for i, dom := range domains {
		if v, ok := d.FeatureVector(dom, sel...); ok {
			X = append(X, v)
			y = append(y, labels[i])
			used = append(used, dom)
		}
	}
	if len(X) == 0 {
		return nil, ErrNoDomains
	}
	if err := clf.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: training %s classifier: %w", clf.Name(), err)
	}
	return &Classifier{detector: d, clf: clf, views: sel, Used: used}, nil
}

// Classifier is a trained malicious-domain classifier bound to its
// detector's feature space.
type Classifier struct {
	detector *Detector
	clf      DomainClassifier
	views    []bipartite.View
	// Used lists the training domains that were actually in the retained
	// vertex set.
	Used []string
}

// Score returns the backend's decision value for a domain (positive =
// malicious side of the boundary); ok is false for unknown domains.
func (c *Classifier) Score(domain string) (float64, bool) {
	v, ok := c.detector.FeatureVector(domain, c.views...)
	if !ok {
		return 0, false
	}
	return c.clf.Decision(v), true
}

// Predict returns 1 (malicious) or 0 (benign); ok is false for unknown
// domains.
func (c *Classifier) Predict(domain string) (int, bool) {
	s, ok := c.Score(domain)
	if !ok {
		return 0, false
	}
	if s > 0 {
		return 1, true
	}
	return 0, true
}

// Model exposes the underlying SVM (support-vector count etc.) when
// the classification backend is SVM-backed, directly or through an
// ensemble member; it returns nil for other backends.
func (c *Classifier) Model() *svm.Model {
	if b, ok := c.clf.(svmBacked); ok {
		return b.SVM()
	}
	return nil
}

// Backend returns the classification backend's registered name.
func (c *Classifier) Backend() string { return c.clf.Name() }

// ClusterDomains groups the given domains by X-Means over their combined
// feature vectors (§7.1), returning the clustering and the domains
// actually clustered (those in the retained set, order-aligned with the
// result's Assign).
func (d *Detector) ClusterDomains(domains []string, cfg xmeans.Config) (*xmeans.Result, []string, error) {
	if !d.built {
		return nil, nil, ErrNotBuilt
	}
	X, kept, err := d.FeatureMatrix(domains)
	if err != nil {
		return nil, nil, err
	}
	if len(X) == 0 {
		return nil, nil, ErrNoDomains
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.cfg.Seed
	}
	res, err := xmeans.Cluster(X, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: clustering: %w", err)
	}
	return res, kept, nil
}

// viewsOrAll resolves an explicit view selection, defaulting to all
// three. It always returns a fresh slice: handing out the package-level
// bipartite.Views (or aliasing the caller's argument) would let anyone
// holding a Classifier mutate the global view order.
func viewsOrAll(views []bipartite.View) []bipartite.View {
	if len(views) == 0 {
		views = bipartite.Views
	}
	return append([]bipartite.View(nil), views...)
}

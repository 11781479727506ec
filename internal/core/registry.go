package core

// The pluggable-stage registry: the three seams of the Figure-2
// pipeline — feature learning over the similarity graphs, domain
// classification over the concatenated features, and the view
// selection between them — are interfaces resolved by name from
// package-level registries, so alternative backends (the MF-DNS-E
// matrix-factorization embedder, label propagation over the
// association structure, ensembles) plug in through Config instead of
// patching core internals. The built-in registrations live in the
// backend_*.go files; the default selection (line + svm over all three
// views) reproduces the pre-registry build byte-identically, which
// golden_test.go pins.
//
// Registry contract for backends (see DESIGN.md §S30):
//
//   - Determinism: Train/Fit must be a pure function of (inputs,
//     seed) — the streaming mode's crash-recovery guarantee replays
//     builds and compares feeds byte-for-byte.
//   - Warm start: an Embedder must honor EmbedSpec.Init (nil rows =
//     cold start for that vertex) or ignore it entirely; it must never
//     mutate the init rows, which alias the previous window's live
//     model.
//   - Persistence: a DomainClassifier's Save must write only
//     gob-friendly wire structs with exported fields (gob drops the
//     rest silently; the round-trip tests compare every reloaded
//     decision), and the registered loader must
//     read back a classifier whose Decision is bit-identical to the
//     saved one.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// Embedding holds one view's learned vertex representations in a
// backend-neutral form: Vectors[v] is the embedding of retained domain
// v (index-aligned with Detector.Domains).
type Embedding struct {
	Dim     int
	Vectors [][]float64
	// Samples is the number of SGD samples the backend performed, for
	// build telemetry; 0 when the notion does not apply.
	Samples int
}

// EmbedSpec carries the per-build training parameters an Embedder
// receives alongside the similarity graph. Backend-specific knobs
// (LINE's proximity order, MF's regularization) belong to the backend
// factory's captured Config instead.
type EmbedSpec struct {
	// Dim is the requested embedding dimension.
	Dim int
	// Samples overrides the backend's automatic sample budget (0 =
	// auto).
	Samples int
	// Seed drives initialization and sampling; it is already mixed
	// per-view by the stage runner.
	Seed uint64
	// Init optionally warm-starts training with one row per vertex
	// (nil rows fall back to random initialization). Rows must be
	// treated as read-only.
	Init [][]float64
}

// Embedder learns one view's embedding from its similarity graph.
// Implementations are stateless per build; a fresh value comes from
// the registered factory for every Detector.
type Embedder interface {
	// Name returns the registered backend name.
	Name() string
	// Train learns vertex representations for g under spec.
	Train(g *graph.Weighted, spec EmbedSpec) (*Embedding, error)
}

// DomainClassifier scores feature vectors on the malicious/benign
// axis. Fit is called once with the training matrix; Decision must be
// safe for concurrent use after Fit (the Scorer precomputes its
// decision table through it).
type DomainClassifier interface {
	// Name returns the registered backend name.
	Name() string
	// Fit trains on X (one row per domain) with labels y (1 =
	// malicious).
	Fit(X [][]float64, y []int) error
	// Decision returns the decision value for one feature vector
	// (positive = malicious side of the boundary).
	Decision(x []float64) float64
	// Save persists the fitted state; the backend's registered
	// ClassifierLoader must read it back.
	Save(w io.Writer) error
}

// EmbedderFactory builds a backend instance for one detector
// configuration.
type EmbedderFactory func(cfg Config) Embedder

// ClassifierFactory builds a backend instance for one detector
// configuration.
type ClassifierFactory func(cfg Config) DomainClassifier

// ClassifierLoader reads a classifier persisted by its Save method.
type ClassifierLoader func(r io.Reader) (DomainClassifier, error)

// Default backend names: the selection Config's zero values resolve
// to, reproducing the paper's pipeline.
const (
	DefaultEmbedder   = "line"
	DefaultClassifier = "svm"
	DefaultViewSet    = "all"
)

var (
	embedders   = map[string]EmbedderFactory{}
	classifiers = map[string]ClassifierFactory{}
	clfLoaders  = map[string]ClassifierLoader{}
	viewSets    = map[string][]bipartite.View{}
)

// RegisterEmbedder adds an embedding backend under name. Registering a
// duplicate name panics: silently replacing a backend would change
// what existing fingerprints and model files mean.
func RegisterEmbedder(name string, factory EmbedderFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterEmbedder needs a name and a factory")
	}
	if _, dup := embedders[name]; dup {
		panic(fmt.Sprintf("core: embedder %q already registered", name))
	}
	embedders[name] = factory
}

// RegisterClassifier adds a classification backend under name, with
// the loader that reads its persisted form. Duplicate names panic.
func RegisterClassifier(name string, factory ClassifierFactory, loader ClassifierLoader) {
	if name == "" || factory == nil || loader == nil {
		panic("core: RegisterClassifier needs a name, a factory, and a loader")
	}
	if _, dup := classifiers[name]; dup {
		panic(fmt.Sprintf("core: classifier %q already registered", name))
	}
	classifiers[name] = factory
	clfLoaders[name] = loader
}

// RegisterViewSet adds a named view selection. Duplicate names panic.
func RegisterViewSet(name string, views []bipartite.View) {
	if name == "" || len(views) == 0 {
		panic("core: RegisterViewSet needs a name and at least one view")
	}
	if _, dup := viewSets[name]; dup {
		panic(fmt.Sprintf("core: view set %q already registered", name))
	}
	viewSets[name] = append([]bipartite.View(nil), views...)
}

// Embedders lists the registered embedding backends, sorted.
func Embedders() []string { return sortedKeys(embedders) }

// Classifiers lists the registered classification backends, sorted.
func Classifiers() []string { return sortedKeys(classifiers) }

// ViewSets lists the registered view selections, sorted.
func ViewSets() []string { return sortedKeys(viewSets) }

// ViewSet returns the views registered under name.
func ViewSet(name string) ([]bipartite.View, bool) {
	views, ok := viewSets[name]
	if !ok {
		return nil, false
	}
	return append([]bipartite.View(nil), views...), true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Selection-name accessors: the Config zero values mean the defaults,
// so fingerprints and persisted headers always carry concrete names.

func (c Config) embedderName() string {
	if c.Embedder == "" {
		return DefaultEmbedder
	}
	return c.Embedder
}

func (c Config) classifierName() string {
	if c.Classifier == "" {
		return DefaultClassifier
	}
	return c.Classifier
}

func (c Config) viewSetName() string {
	if c.Views == "" {
		return DefaultViewSet
	}
	return c.Views
}

// newEmbedder resolves the configured embedding backend.
func newEmbedder(cfg Config) (Embedder, error) {
	name := cfg.embedderName()
	factory, ok := embedders[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown embedder %q (available: %s)",
			name, strings.Join(Embedders(), ", "))
	}
	return factory(cfg), nil
}

// newClassifier resolves the configured classification backend.
func newClassifier(cfg Config) (DomainClassifier, error) {
	name := cfg.classifierName()
	factory, ok := classifiers[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown classifier %q (available: %s)",
			name, strings.Join(Classifiers(), ", "))
	}
	return factory(cfg), nil
}

// loadClassifier reads a persisted classifier through the loader
// registered under name.
func loadClassifier(name string, r io.Reader) (DomainClassifier, error) {
	loader, ok := clfLoaders[name]
	if !ok {
		return nil, fmt.Errorf("core: model needs unknown classifier %q (available: %s)",
			name, strings.Join(Classifiers(), ", "))
	}
	return loader(r)
}

// resolveViewSet resolves the configured named view selection to a
// fresh slice.
func resolveViewSet(cfg Config) ([]bipartite.View, error) {
	name := cfg.viewSetName()
	views, ok := ViewSet(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown view set %q (available: %s)",
			name, strings.Join(ViewSets(), ", "))
	}
	return views, nil
}

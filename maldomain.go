// Package maldomain is the public API of this repository: a from-scratch
// Go implementation of "Detecting Malicious Domains with Behavioral
// Modeling and Graph Embedding" (Lei et al., ICDCS 2019).
//
// The system models the DNS behavior of effective second-level domains
// (e2LDs) observed in a network's traffic through three bipartite graphs
// — domains vs. querying hosts, domains vs. resolved IP addresses, and
// domains vs. active minutes — projects each onto the domain vertex set
// with Jaccard-weighted edges, learns latent feature vectors per view
// with the LINE graph-embedding algorithm, classifies domains as
// malicious or benign with an RBF-kernel SVM, and mines malware families
// with X-Means clustering.
//
// # Quick start
//
//	det := maldomain.NewDetector(maldomain.Config{
//		Start: captureStart,
//		Days:  31,
//	})
//	for _, obs := range observations {      // joined DNS query/response records
//		det.Consume(obs)
//	}
//	if err := det.BuildModel(); err != nil { ... }
//	clf, err := det.TrainClassifier(labeledDomains, labels)
//	score, ok := clf.Score("suspicious-domain.example")
//
// See examples/ for complete programs, including end-to-end runs against
// the synthetic campus-network traffic generator used to reproduce the
// paper's evaluation, and EXPERIMENTS.md for the paper-vs-measured
// results of every table and figure.
package maldomain

import (
	"io"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stream"
)

// Config parameterizes a Detector; see the field documentation in
// internal/core. The zero value plus Start/Days uses the paper's
// defaults throughout (pruning rules of §4.1, LINE with both proximity
// orders, RBF SVM with C=0.09 and γ=0.06).
type Config = core.Config

// Detector is the end-to-end detection system of the paper's Figure 2.
type Detector = core.Detector

// Classifier is a trained malicious-domain classifier (§6.2).
type Classifier = core.Classifier

// ModelStats summarizes a built model.
type ModelStats = core.ModelStats

// BuildReport is the per-stage timing and size report recorded by
// Detector.BuildModel; StageReport is one stage's entry.
type BuildReport = core.BuildReport

// StageReport records one build stage's cost and output size.
type StageReport = core.StageReport

// Scorer serves a persisted model (Detector.SaveModel) without any
// pipeline state: Score/Predict/FeatureVector/ScoreBatch over the
// retained domains. Load one with LoadScorer.
type Scorer = core.Scorer

// Result is one domain's scoring outcome from Scorer.ScoreBatch,
// Scorer.Lookup, or the fold-in path: decision value, thresholded
// label (1 = malicious), whether the domain was in the model, a
// calibrated confidence in [0,1], and the verdict's source.
type Result = core.Result

// Verdict sources carried in Result.Source: "model" for domains in the
// persisted decision table, "foldin" for provisional embeddings scored
// by the classifier, "knn" when the nearest-neighbor vote overrode the
// classifier on a fold-in embedding.
const (
	SourceModel  = core.SourceModel
	SourceFoldin = core.SourceFoldin
	SourceKNN    = core.SourceKNN
)

// Fold-in: scoring domains outside the model from observed relations
// to retained domains (the deployment answer to "what about a domain
// the window never retained?"). Relation is one weighted edge in one
// behavioral view; Scorer.ScoreObserved folds the relations into a
// provisional embedding and scores it. FoldInCache accumulates
// per-domain evidence with bounded capacity and TTL expiry — the state
// behind the daemon's POST /v1/observe — and Rolling feeds it at day
// boundaries through StreamConfig.FoldIn.

// Relation is one observed edge between an unknown domain and a
// retained neighbor in one behavioral view.
type Relation = core.Relation

// FoldInCache is a bounded, TTL'd store of fold-in evidence shared by
// the serving daemon and the streaming detector.
type FoldInCache = core.FoldInCache

// FoldInConfig bounds a FoldInCache (entries, relations per domain,
// evidence lifetime); the zero value uses the serving defaults.
type FoldInConfig = core.FoldInConfig

// NewFoldInCache returns an empty fold-in cache for cfg.
func NewFoldInCache(cfg FoldInConfig) *FoldInCache { return core.NewFoldInCache(cfg) }

// Observation is one joined DNS query/response record — the schema the
// paper's collector extracts from packet captures (§2).
type Observation = pipeline.Input

// View selects one of the three behavioral similarity views of §4.2.
type View = bipartite.View

// The three behavioral views: shared querying hosts (Eq. 1), shared
// resolved addresses (Eq. 2), and shared active minutes (Eq. 3).
const (
	ViewQuery = bipartite.ViewQuery
	ViewIP    = bipartite.ViewIP
	ViewTime  = bipartite.ViewTime
)

// Views lists all three views in canonical order.
var Views = bipartite.Views

// NewDetector returns a Detector for cfg.
func NewDetector(cfg Config) *Detector { return core.NewDetector(cfg) }

// Pluggable stage registry (see internal/core/registry.go for the
// backend contract): embedders, classifiers, and view sets are
// registered by name and selected through Config.Embedder,
// Config.Classifier, and Config.Views. The defaults ("line", "svm",
// "all") reproduce the paper's pipeline byte-identically.

// Embedder learns one view's embedding from its similarity graph.
type Embedder = core.Embedder

// DomainClassifier scores feature vectors on the malicious/benign axis.
type DomainClassifier = core.DomainClassifier

// Embedding holds one view's learned vertex representations.
type Embedding = core.Embedding

// EmbedSpec carries the per-build parameters an Embedder receives.
type EmbedSpec = core.EmbedSpec

// RegisterEmbedder adds an embedding backend; duplicate names panic.
func RegisterEmbedder(name string, factory func(Config) Embedder) {
	core.RegisterEmbedder(name, factory)
}

// RegisterClassifier adds a classification backend with its persisted-
// form loader; duplicate names panic.
func RegisterClassifier(name string, factory func(Config) DomainClassifier, loader func(io.Reader) (DomainClassifier, error)) {
	core.RegisterClassifier(name, factory, loader)
}

// RegisterViewSet adds a named view selection; duplicate names panic.
func RegisterViewSet(name string, views []View) { core.RegisterViewSet(name, views) }

// Embedders, Classifiers, and ViewSets list the registered backend
// names, sorted.
func Embedders() []string   { return core.Embedders() }
func Classifiers() []string { return core.Classifiers() }
func ViewSets() []string    { return core.ViewSets() }

// LoadScorer reads a model stream written by Detector.SaveModel and
// returns a serving-only Scorer.
func LoadScorer(r io.Reader) (*Scorer, error) { return core.LoadScorer(r) }

// Sentinel errors re-exported from the core implementation. The
// surface follows one convention throughout: per-domain lookups on hot
// paths (FeatureVector, Score, Predict, ScoreBatch) use the
// (value, ok) comma-ok form, whole-call failures return errors
// wrapping these sentinels, and Scorer.Lookup bridges the two by
// reporting an unknown domain as an error wrapping ErrUnknownDomain.
var (
	// ErrNotBuilt is returned by model accessors before BuildModel.
	ErrNotBuilt = core.ErrNotBuilt
	// ErrAlreadyBuilt is returned by a second BuildModel call.
	ErrAlreadyBuilt = core.ErrAlreadyBuilt
	// ErrNoDomains is returned when no domains survive pruning or no
	// labeled domain is in the retained vertex set.
	ErrNoDomains = core.ErrNoDomains
	// ErrUnknownDomain is wrapped by Scorer.Lookup for domains outside
	// the model's retained set; the serving daemon maps it to HTTP 404.
	ErrUnknownDomain = core.ErrUnknownDomain
)

// The streaming deployment layer (the real-time mode of the paper's
// introduction), re-exported so deployments need only this package.

// Rolling is the streaming detector: feed observations with Consume,
// call EndOfDay at each day boundary to remodel the sliding window and
// collect alerts.
type Rolling = stream.Rolling

// StreamConfig parameterizes a Rolling detector (window length, alert
// budget, model configuration, label source).
type StreamConfig = stream.Config

// Alert is one newly surfaced suspicious domain from a Rolling
// detector's remodel.
type Alert = stream.Alert

// Labeler supplies the currently known labels when a streaming remodel
// retrains the classifier.
type Labeler = stream.Labeler

// NewRolling returns a streaming detector for cfg.
func NewRolling(cfg StreamConfig) (*Rolling, error) { return stream.New(cfg) }

// Crash safety: a Rolling detector checkpoints its full state at day
// boundaries (Rolling.WriteCheckpoint) and a restart restores it
// (RestoreRolling / RestoreRollingFile) and replays the input stream;
// with a deterministic model configuration the resumed alert feed is
// byte-identical to an uninterrupted run.

// Cursor locates a checkpoint in the caller's input and output
// streams: the last completed day boundary and the alert-feed offset.
type Cursor = stream.Cursor

// DegradedError reports a day boundary whose remodel or training
// failed; the stream stays healthy and callers keep going (errors.As).
type DegradedError = stream.DegradedError

// RestoreRolling reads a checkpoint written by Rolling.Checkpoint or
// Rolling.WriteCheckpoint; cfg must match the writing configuration.
func RestoreRolling(r io.Reader, cfg StreamConfig) (*Rolling, Cursor, error) {
	return stream.Restore(r, cfg)
}

// RestoreRollingFile is RestoreRolling over a checkpoint file; a
// missing file satisfies os.IsNotExist (treat it as a cold start).
func RestoreRollingFile(path string, cfg StreamConfig) (*Rolling, Cursor, error) {
	return stream.RestoreFile(path, cfg)
}

// Checkpoint-failure sentinels.
var (
	// ErrCorruptCheckpoint reports a checkpoint stream that is foreign,
	// truncated, fails its CRC, or carries inconsistent state.
	ErrCorruptCheckpoint = stream.ErrCorruptCheckpoint
	// ErrFingerprintMismatch reports a checkpoint written under a
	// different configuration.
	ErrFingerprintMismatch = stream.ErrFingerprintMismatch
)

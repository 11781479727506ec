package core

// Full-model persistence: the train/serve split of the staged
// architecture. SaveModel writes everything scoring needs — the retained
// domain set, the three per-view embeddings, the trained classifier with
// its view selection, and a config fingerprint — as one versioned
// stream layered on the existing line.Embedding.Save and the backend's
// classifier Save format. LoadScorer reads it back into a Scorer, a
// lightweight serving handle that answers Score/Predict/FeatureVector
// without a pipeline.Processor or any of the build-time state, so a
// model trains once and deploys to any number of scoring processes.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/crcio"
	"repro/internal/faultio"
	"repro/internal/line"
	"repro/internal/mathx"
	"repro/internal/svm"
)

const (
	// modelMagic guards against feeding arbitrary gob streams (for
	// example a bare embedding or SVM file) to LoadScorer.
	modelMagic = "maldomain-model"
	// modelVersion is bumped on any incompatible layout change.
	// Version 2 appends a CRC-32 integrity trailer (crcio) over the
	// whole stream; version-1 files (no trailer) are still readable.
	modelVersion = 2
	// modelVersionBackends (version 3) inserts a modelBackends record
	// between the header and the embedding blobs, naming the backends
	// that produced the file. Default-backend models keep writing
	// version 2 so their bytes are identical to pre-registry builds;
	// versions 1 and 2 load as line+svm.
	modelVersionBackends = 3
)

// modelHeader is the leading gob value of a saved model; the three
// per-view embeddings (canonical bipartite.Views order) and the
// classifier follow it on the same stream (on version-3 streams, after
// the modelBackends record).
type modelHeader struct {
	Magic       string
	Version     int
	Fingerprint string
	EmbedDim    int
	Domains     []string
	Views       []bipartite.View
}

// modelBackends is the second gob value of a version-3 model stream: it
// names the registered backends that produced the file so loading
// dispatches to the right classifier reader and rejects files whose
// backends this build does not know.
type modelBackends struct {
	Embedder   string
	Classifier string
	ViewSet    string
}

// Fingerprint returns a short description of every configuration knob
// that shapes the model artifact (window, pruning, projection, embedding
// and SVM parameters, seed). It is stored in saved models so operators
// can tell which configuration produced a file.
func (c Config) Fingerprint() string {
	kernel := "rbf(gamma=0.06)"
	if c.SVM.Kernel != nil {
		kernel = c.SVM.Kernel.Name()
	}
	cost := c.SVM.C
	if cost <= 0 {
		cost = 0.09
	}
	fp := fmt.Sprintf(
		"start=%s days=%d prune=%g/%d minsim=%g timesim=%g maxattr=%d dim=%d order=%d samples=%d svm=%s/C=%g seed=%d",
		c.Start.UTC().Format("2006-01-02T15:04:05Z"), c.Days,
		c.Prune.MaxHostFrac, c.Prune.MinHosts,
		c.MinSimilarity, c.TimeMinSimilarity, c.MaxAttrDegree,
		c.EmbedDim, c.EmbedOrder, c.EmbedSamples,
		kernel, cost, c.Seed)
	// Backend selections append only when non-default, so every
	// fingerprint ever produced by a default configuration — including
	// ones persisted before the registry existed — stays stable.
	if n := c.embedderName(); n != DefaultEmbedder {
		fp += " embedder=" + n
	}
	if n := c.classifierName(); n != DefaultClassifier {
		fp += " classifier=" + n
	}
	if n := c.viewSetName(); n != DefaultViewSet {
		fp += " views=" + n
	}
	return fp
}

// SaveModel writes the built model and the classifier trained on it as
// a single versioned stream readable by LoadScorer. The round trip is
// exact: a loaded Scorer reproduces bit-identical feature vectors and
// decision values for every retained domain.
func (d *Detector) SaveModel(w io.Writer, clf *Classifier) error {
	if !d.built {
		return ErrNotBuilt
	}
	if clf == nil {
		return errors.New("core: SaveModel needs a trained classifier")
	}
	if clf.detector != d {
		return errors.New("core: classifier was trained on a different detector")
	}
	bk := modelBackends{
		Embedder:   d.cfg.embedderName(),
		Classifier: clf.clf.Name(),
		ViewSet:    d.cfg.viewSetName(),
	}
	version := modelVersion
	if bk.Embedder != DefaultEmbedder || bk.Classifier != DefaultClassifier {
		version = modelVersionBackends
	}
	hdr := modelHeader{
		Magic:       modelMagic,
		Version:     version,
		Fingerprint: d.cfg.Fingerprint(),
		EmbedDim:    d.cfg.EmbedDim,
		Domains:     d.domains,
		Views:       clf.views,
	}
	return crcio.Seal(w, "", func(w io.Writer) error {
		enc := gob.NewEncoder(w)
		if err := enc.Encode(hdr); err != nil {
			return fmt.Errorf("core: encoding model header: %w", err)
		}
		if version >= modelVersionBackends {
			if err := enc.Encode(bk); err != nil {
				return fmt.Errorf("core: encoding model backends: %w", err)
			}
		}
		for _, v := range bipartite.Views {
			e := d.embeddings[v]
			// Embeddings always persist through the line wire format
			// regardless of which backend trained them: the on-disk blob is
			// plain (dim, vectors), and reusing one format keeps default
			// files byte-identical to pre-registry builds.
			if err := (&line.Embedding{Dim: e.Dim, Vectors: e.Vectors}).Save(w); err != nil {
				return fmt.Errorf("core: saving %v embedding: %w", v, err)
			}
		}
		if err := clf.clf.Save(w); err != nil {
			return fmt.Errorf("core: saving classifier: %w", err)
		}
		return nil
	})
}

// SaveModelFile atomically replaces path with the saved model
// (crcio.Commit) and returns its size: a crash, a failed write, or a
// scoring process reloading mid-write finds the previous model intact.
func SaveModelFile(path string, d *Detector, clf *Classifier) (int64, error) {
	return saveModelFile(faultio.OS, path, d, clf)
}

// saveModelFile is SaveModelFile with an injectable filesystem, the
// seam the fault-injection tests drive.
func saveModelFile(fs faultio.FS, path string, d *Detector, clf *Classifier) (int64, error) {
	return crcio.Commit(fs, path, ".model-*", func(w io.Writer) error { return d.SaveModel(w, clf) })
}

// LoadScorerFile loads the model file at path. A missing file is
// reported as-is (os.IsNotExist-compatible).
func LoadScorerFile(path string) (*Scorer, error) { return crcio.ReadFile(path, LoadScorer) }

// Scorer serves a persisted model: feature vectors, decision values and
// predictions for the domains retained at build time, with none of the
// build-time pipeline state. Scorers are immutable and safe for
// concurrent use.
//
// The retained domain set is fixed at load time, which makes the
// classifier decision values a finite pure function of the model:
// LoadScorer precomputes them once (through the exact same
// feature-assembly and Decision path a per-call evaluation would take,
// so the table is bit-identical by construction) and the per-request
// lookup forms — Score, Predict, Result, ScoreBatch, ScoreBatchInto,
// Lookup — reduce to one map probe plus two array reads. None of them
// allocate; scripts/alloccheck.sh gates that invariant in CI.
type Scorer struct {
	fingerprint string
	dim         int
	domains     []string
	index       map[string]int
	embeddings  map[bipartite.View]*Embedding
	clf         DomainClassifier
	views       []bipartite.View

	// embedderName and classifierName are the backend names recorded in
	// the file (line/svm for legacy version-1/2 streams).
	embedderName   string
	classifierName string

	// scores and labels are the precomputed decision table, indexed
	// like domains.
	scores []float64
	labels []int8

	// feats holds each retained domain's feature vector over the
	// classifier's views a second time, blocked for the fold-in kNN's
	// sweep (foldin.go; 8·len(views)·dim bytes a domain), featNorm its L2
	// norm for the cosine similarities, and viewVecs the embedding rows
	// of views[i], which the fold-in averages.
	feats    *mathx.RowTable
	featNorm []float64
	viewVecs [][][]float64

	// foldinPool recycles ScoreObserved's scratch space (foldin.go).
	foldinPool sync.Pool
}

// LoadScorer reads a model written by SaveModel. Corrupt, truncated, or
// foreign streams are rejected with an error: version-2 streams carry a
// CRC-32 trailer that is verified over every byte, so bit-rot anywhere
// in the file is detected deterministically. Legacy version-1 streams
// (written before the trailer existed) still load.
func LoadScorer(r io.Reader) (*Scorer, error) {
	s := new(Scorer)
	if err := crcio.Open(r, "", s.read); err != nil {
		return nil, err
	}
	s.precompute()
	return s, nil
}

// read decodes a model stream's sections into s and reports whether
// the stream's version carries a trailer.
func (s *Scorer) read(cr io.Reader) (bool, error) {
	dec := gob.NewDecoder(cr)
	var hdr modelHeader
	if err := dec.Decode(&hdr); err != nil {
		return false, fmt.Errorf("core: decoding model header: %w", err)
	}
	if hdr.Magic != modelMagic {
		return false, fmt.Errorf("core: not a model stream (magic %q)", hdr.Magic)
	}
	if hdr.Version != modelVersion && hdr.Version != modelVersionBackends && hdr.Version != 1 {
		return false, fmt.Errorf("core: model version %d, this build reads %d (and legacy 2, 1)",
			hdr.Version, modelVersionBackends)
	}
	if hdr.EmbedDim <= 0 || len(hdr.Domains) == 0 {
		return false, errors.New("core: corrupt model: empty domain set or dimension")
	}
	if len(hdr.Views) == 0 {
		return false, errors.New("core: corrupt model: classifier has no views")
	}
	for _, v := range hdr.Views {
		if v != bipartite.ViewQuery && v != bipartite.ViewIP && v != bipartite.ViewTime {
			return false, fmt.Errorf("core: corrupt model: unknown view %d", int(v))
		}
	}
	// Version-1/2 streams predate backend names; they were always
	// line+svm. Version-3 streams name their backends, and both names
	// must be registered in this build or the load is rejected.
	bk := modelBackends{Embedder: DefaultEmbedder, Classifier: DefaultClassifier, ViewSet: DefaultViewSet}
	if hdr.Version >= modelVersionBackends {
		if err := dec.Decode(&bk); err != nil {
			return false, fmt.Errorf("core: decoding model backends: %w", err)
		}
		if _, ok := embedders[bk.Embedder]; !ok {
			return false, fmt.Errorf("core: model needs unknown embedder %q (available: %s)",
				bk.Embedder, strings.Join(Embedders(), ", "))
		}
		if _, ok := clfLoaders[bk.Classifier]; !ok {
			return false, fmt.Errorf("core: model needs unknown classifier %q (available: %s)",
				bk.Classifier, strings.Join(Classifiers(), ", "))
		}
	}
	*s = Scorer{
		fingerprint:    hdr.Fingerprint,
		dim:            hdr.EmbedDim,
		domains:        hdr.Domains,
		index:          make(map[string]int, len(hdr.Domains)),
		embeddings:     make(map[bipartite.View]*Embedding, len(bipartite.Views)),
		views:          hdr.Views,
		embedderName:   bk.Embedder,
		classifierName: bk.Classifier,
	}
	for i, d := range hdr.Domains {
		s.index[d] = i
	}
	for _, v := range bipartite.Views {
		emb, err := line.LoadEmbedding(cr)
		if err != nil {
			return false, fmt.Errorf("core: loading %v embedding: %w", v, err)
		}
		if emb.Dim != hdr.EmbedDim {
			return false, fmt.Errorf("core: %v embedding dim %d, header says %d", v, emb.Dim, hdr.EmbedDim)
		}
		if len(emb.Vectors) != len(hdr.Domains) {
			return false, fmt.Errorf("core: %v embedding has %d vectors for %d domains",
				v, len(emb.Vectors), len(hdr.Domains))
		}
		s.embeddings[v] = &Embedding{Dim: emb.Dim, Vectors: emb.Vectors}
	}
	clf, err := loadClassifier(bk.Classifier, cr)
	if err != nil {
		return false, fmt.Errorf("core: loading classifier: %w", err)
	}
	s.clf = clf
	return hdr.Version >= 2, nil
}

// precompute fills the decision table: one Decision evaluation per
// retained domain, through the same AppendFeatureVector + Decision
// path a per-call Score would take, so serving reads are bit-identical
// to on-demand evaluation. One feature buffer is reused across the
// whole sweep; the table (16 B + 1 B per domain) and the fold-in's
// blocked copy of the feature vectors (feats) are the allocations that
// scale with the model.
func (s *Scorer) precompute() {
	s.scores = make([]float64, len(s.domains))
	s.labels = make([]int8, len(s.domains))
	s.featNorm = make([]float64, len(s.domains))
	s.feats = mathx.NewRowTable(len(s.domains), len(s.views)*s.dim)
	s.viewVecs = make([][][]float64, len(s.views))
	for vi, v := range s.views {
		s.viewVecs[vi] = s.embeddings[v].Vectors
	}
	buf := make([]float64, 0, len(s.views)*s.dim)
	for i := range s.domains {
		buf = s.appendFeaturesAt(buf[:0], i, s.views)
		s.feats.SetRow(i, buf)
		sc := s.clf.Decision(buf)
		s.scores[i] = sc
		if sc > 0 {
			s.labels[i] = 1
		}
		var sq float64
		for _, x := range buf {
			sq += x * x
		}
		s.featNorm[i] = math.Sqrt(sq)
	}
	s.foldinPool.New = func() any { return s.newFoldinScratch() }
}

// appendFeaturesAt appends the feature vector of the i-th retained
// domain (over the given views) to dst and returns the extended slice.
func (s *Scorer) appendFeaturesAt(dst []float64, i int, views []bipartite.View) []float64 {
	for _, v := range views {
		dst = append(dst, s.embeddings[v].Vectors[i]...)
	}
	return dst
}

// Domains returns the retained domain set the model scores, sorted.
// The slice is the scorer's state; treat it as read-only.
func (s *Scorer) Domains() []string { return s.domains }

// Fingerprint returns the configuration fingerprint recorded at save
// time.
func (s *Scorer) Fingerprint() string { return s.fingerprint }

// Model exposes the underlying SVM (support-vector count etc.) when
// the persisted classifier is SVM-backed, directly or through an
// ensemble member; it returns nil for other backends.
func (s *Scorer) Model() *svm.Model {
	if b, ok := s.clf.(svmBacked); ok {
		return b.SVM()
	}
	return nil
}

// EmbedderName returns the embedding backend name recorded in the model
// file ("line" for legacy version-1/2 files).
func (s *Scorer) EmbedderName() string { return s.embedderName }

// ClassifierName returns the classification backend name recorded in
// the model file ("svm" for legacy version-1/2 files).
func (s *Scorer) ClassifierName() string { return s.classifierName }

// FeatureVector mirrors Detector.FeatureVector on the persisted
// embeddings: the domain's representation over the requested views
// (default all three), or ok=false for domains outside the retained
// set. The returned slice is freshly allocated and caller-owned; use
// AppendFeatureVector to reuse a buffer across calls.
func (s *Scorer) FeatureVector(domain string, views ...bipartite.View) ([]float64, bool) {
	i, ok := s.index[domain]
	if !ok {
		return nil, false
	}
	if len(views) == 0 {
		views = bipartite.Views
	}
	return s.appendFeaturesAt(make([]float64, 0, len(views)*s.dim), i, views), true
}

// AppendFeatureVector is the append form of FeatureVector: it appends
// the domain's representation over the requested views (default all
// three) to dst and returns the extended slice. When dst has capacity
// len(views)*Dim free, the call does not allocate; ok=false (with dst
// unchanged) reports domains outside the retained set.
func (s *Scorer) AppendFeatureVector(dst []float64, domain string, views ...bipartite.View) ([]float64, bool) {
	i, ok := s.index[domain]
	if !ok {
		return dst, false
	}
	if len(views) == 0 {
		views = bipartite.Views
	}
	return s.appendFeaturesAt(dst, i, views), true
}

// Score returns the SVM decision value for a domain over the views the
// classifier was trained with; ok is false for unknown domains. The
// value is read from the precomputed decision table and is
// bit-identical to evaluating the classifier on the domain's feature
// vector.
//
//alloccheck:hot
func (s *Scorer) Score(domain string) (float64, bool) {
	i, ok := s.index[domain]
	if !ok {
		return 0, false
	}
	return s.scores[i], true
}

// Predict returns 1 (malicious) or 0 (benign); ok is false for unknown
// domains.
//
//alloccheck:hot
func (s *Scorer) Predict(domain string) (int, bool) {
	i, ok := s.index[domain]
	if !ok {
		return 0, false
	}
	return int(s.labels[i]), true
}

// Index returns the domain's position in Domains() — the key the
// serving layer uses into tables it builds per retained domain; ok is
// false for domains outside the model.
//
//alloccheck:hot
func (s *Scorer) Index(domain string) (int, bool) {
	i, ok := s.index[domain]
	return i, ok
}

// Result returns the domain's full scoring outcome in comma-ok form:
// the same Score/Label pair the batch API reports, without touching
// the error path. The serving layer renders its per-domain responses
// from it at load.
//
//alloccheck:hot
func (s *Scorer) Result(domain string) (Result, bool) {
	i, ok := s.index[domain]
	if !ok {
		return Result{}, false
	}
	return Result{Score: s.scores[i], Label: int(s.labels[i]), Known: true,
		Confidence: 1, Source: SourceModel}, true
}

// Scoring sources: how a Result's verdict was produced. The serving
// layer surfaces them verbatim in the v1 API's "source" field.
const (
	// SourceModel marks a retained domain scored from the precomputed
	// decision table — the exact model verdict.
	SourceModel = "model"
	// SourceFoldin marks an unseen domain scored by classifying its
	// folded-in provisional embedding (ScoreObserved), with the kNN
	// vote agreeing or abstaining.
	SourceFoldin = "foldin"
	// SourceKNN marks an unseen domain whose kNN-over-embeddings vote
	// overrode a disagreeing classifier verdict.
	SourceKNN = "knn"
)

// Result is one domain's scoring outcome in a batch or error-form
// lookup: the decision value, the thresholded label (1 = malicious),
// and whether the domain was in the retained set at all. Known=false
// zero-values the other fields — unless the result came from
// ScoreObserved, which scores domains outside the model (Known stays
// false, Source and Confidence report how and how surely).
type Result struct {
	Score float64
	Label int
	Known bool
	// Confidence calibrates the verdict into [0,1]: 1 for retained
	// domains (the score is the model's exact output), and for fold-in
	// results the product of relation coverage across views and the
	// kNN neighborhood's label agreement (see foldin.go).
	Confidence float64
	// Source is one of SourceModel, SourceFoldin, SourceKNN; empty for
	// a Known=false result with no fold-in evidence.
	Source string
}

// ScoreBatch scores many domains in one call, returning one Result per
// input in input order (Known=false for domains outside the retained
// set). Scores and labels are bit-identical to per-domain Score and
// Predict calls. The result slice is the only per-call allocation;
// callers that reuse buffers across batches should use ScoreBatchInto.
func (s *Scorer) ScoreBatch(domains []string) []Result {
	return s.ScoreBatchInto(make([]Result, 0, len(domains)), domains)
}

// ScoreBatchInto is the append form of ScoreBatch: it appends one
// Result per domain (input order, Known=false for unknown domains) to
// dst and returns the extended slice. When dst has capacity
// len(domains) free, the call does not allocate, so a caller scoring a
// stream of batches can reuse one buffer for the whole stream.
//
//alloccheck:hot
func (s *Scorer) ScoreBatchInto(dst []Result, domains []string) []Result {
	for _, d := range domains {
		i, ok := s.index[d]
		if !ok {
			dst = append(dst, Result{})
			continue
		}
		dst = append(dst, Result{Score: s.scores[i], Label: int(s.labels[i]), Known: true,
			Confidence: 1, Source: SourceModel})
	}
	return dst
}

// Lookup is the error-returning form of Score/Predict for callers that
// propagate failures as errors: it returns the domain's Result, or an
// error wrapping ErrUnknownDomain when the domain is outside the
// retained set. The serving layer maps that sentinel to HTTP 404.
// The known-domain path does not allocate.
//
//alloccheck:hot
func (s *Scorer) Lookup(domain string) (Result, error) {
	res, ok := s.Result(domain)
	if !ok {
		return Result{}, unknownDomainError(domain)
	}
	return res, nil
}

// unknownDomainError builds the wrapped ErrUnknownDomain for one
// domain. It is kept out of Lookup so the error construction's
// allocations stay off the gated hot-path functions.
//
//go:noinline
func unknownDomainError(domain string) error {
	return fmt.Errorf("%q: %w", domain, ErrUnknownDomain)
}

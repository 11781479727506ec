package core

// Built-in classification backends and view sets. The SVM adapter (the
// default) wraps internal/svm with the exact config-defaulting the
// pre-registry TrainClassifier performed, so default builds stay
// byte-identical. The label-propagation backend adapts the
// transductive internal/beliefprop inference into an inductive
// classifier (HinDom's classification scheme over this repo's feature
// space), and the ensemble backend combines per-backend decision
// values by mean or max.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/beliefprop"
	"repro/internal/bipartite"
	"repro/internal/svm"
)

func init() {
	RegisterClassifier(DefaultClassifier,
		func(cfg Config) DomainClassifier {
			scfg := cfg.SVM
			if scfg.Seed == 0 {
				scfg.Seed = cfg.Seed
			}
			return &svmClassifier{cfg: scfg}
		},
		func(r io.Reader) (DomainClassifier, error) {
			model, err := svm.LoadModel(r)
			if err != nil {
				return nil, err
			}
			return &svmClassifier{model: model}, nil
		})
	RegisterClassifier("labelprop",
		func(cfg Config) DomainClassifier {
			return &labelpropClassifier{k: labelpropK, gamma: labelpropGamma}
		},
		loadLabelprop)
	RegisterClassifier("ensemble", ensembleFactory("ensemble", combineMean), loadEnsemble("ensemble", combineMean))
	RegisterClassifier("ensemble-max", ensembleFactory("ensemble-max", combineMax), loadEnsemble("ensemble-max", combineMax))

	RegisterViewSet(DefaultViewSet, bipartite.Views)
	for _, v := range bipartite.Views {
		RegisterViewSet(v.String(), []bipartite.View{v})
	}
	RegisterViewSet("query+ip", []bipartite.View{bipartite.ViewQuery, bipartite.ViewIP})
}

// ---- svm ----

// svmClassifier wraps the paper's §6.2 SVM behind the registry seam.
type svmClassifier struct {
	cfg   svm.Config
	model *svm.Model
}

func (*svmClassifier) Name() string { return DefaultClassifier }

func (c *svmClassifier) Fit(X [][]float64, y []int) error {
	model, err := svm.Train(X, y, c.cfg)
	if err != nil {
		return err
	}
	c.model = model
	return nil
}

func (c *svmClassifier) Decision(x []float64) float64 { return c.model.Decision(x) }

func (c *svmClassifier) Save(w io.Writer) error { return c.model.Save(w) }

// SVM exposes the wrapped model for callers that inspect
// support-vector counts; it implements the svmBacked probe that
// Classifier.Model and Scorer.Model use.
func (c *svmClassifier) SVM() *svm.Model { return c.model }

// svmBacked is the probe interface for backends that wrap an SVM
// (directly or as an ensemble member).
type svmBacked interface {
	SVM() *svm.Model
}

// ---- labelprop ----

// labelpropClassifier classifies by belief propagation over a
// k-nearest-neighbor anchor graph in feature space. Fit connects each
// training point to its k nearest anchors through pseudo-association
// vertices and runs loopy BP (internal/beliefprop) with every labeled
// point as a seed, yielding a smoothed per-anchor belief that blends a
// point's own label with its neighborhood's. Decision is inductive:
// an unseen vector takes the RBF-weighted vote of its k nearest
// anchors' propagated beliefs, mapped to a [-1, 1] decision axis.
type labelpropClassifier struct {
	k     int
	gamma float64

	anchors [][]float64
	beliefs []float64
}

const (
	// labelpropK is the anchor-graph neighborhood size.
	labelpropK = 10
	// labelpropGamma matches the paper's RBF γ so labelprop and svm
	// operate at the same similarity length scale.
	labelpropGamma = 0.06
)

func (*labelpropClassifier) Name() string { return "labelprop" }

func (c *labelpropClassifier) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("core: labelprop: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("core: labelprop: %d rows vs %d labels", len(X), len(y))
	}
	anchors := make([][]float64, len(X))
	for i, row := range X {
		anchors[i] = append([]float64(nil), row...)
	}

	// Anchor graph: one "domain" vertex per training point, one
	// pseudo-association vertex per undirected kNN edge, so the
	// bipartite BP machinery propagates beliefs between neighbors.
	g := beliefprop.NewGraph()
	seeds := make(map[string]int, len(anchors))
	for i, label := range y {
		seeds[anchorName(i)] = label
		// Ensure isolated anchors still exist as graph vertices.
		g.AddEdge(selfEdgeName(i), anchorName(i))
	}
	k := c.k
	if k >= len(anchors) {
		k = len(anchors) - 1
	}
	for i := range anchors {
		for _, j := range nearestAnchors(anchors, anchors[i], i, k) {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			name := pairEdgeName(lo, hi)
			g.AddEdge(name, anchorName(lo))
			g.AddEdge(name, anchorName(hi))
		}
	}
	res, err := beliefprop.Run(g, seeds, beliefprop.Config{})
	if err != nil {
		return fmt.Errorf("core: labelprop: %w", err)
	}
	beliefs := make([]float64, len(anchors))
	for i := range beliefs {
		beliefs[i] = res.DomainBelief[anchorName(i)]
	}
	c.anchors, c.beliefs = anchors, beliefs
	return nil
}

func anchorName(i int) string   { return fmt.Sprintf("a%d", i) }
func selfEdgeName(i int) string { return fmt.Sprintf("s%d", i) }
func pairEdgeName(i, j int) string {
	return fmt.Sprintf("e%d:%d", i, j)
}

// nearestAnchors returns the indices of the k anchors closest to x
// (squared Euclidean distance), excluding self. Ties break on index so
// the anchor graph is deterministic.
func nearestAnchors(anchors [][]float64, x []float64, self, k int) []int {
	if k <= 0 {
		return nil
	}
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, len(anchors)-1)
	for j, a := range anchors {
		if j == self {
			continue
		}
		cands = append(cands, cand{idx: j, dist: sqDist(x, a)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

func sqDist(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func (c *labelpropClassifier) Decision(x []float64) float64 {
	k := c.k
	if k > len(c.anchors) {
		k = len(c.anchors)
	}
	nearest := nearestAnchors(c.anchors, x, -1, k)
	num, den := 0.0, 0.0
	for _, j := range nearest {
		w := math.Exp(-c.gamma * sqDist(x, c.anchors[j]))
		num += w * (2*c.beliefs[j] - 1)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// labelpropWire is the persisted form of a fitted labelprop
// classifier (exported fields only; TestNonDefaultRoundTrip compares
// every reloaded decision).
type labelpropWire struct {
	K       int
	Gamma   float64
	Dim     int
	Anchors [][]float64
	Beliefs []float64
}

func (c *labelpropClassifier) Save(w io.Writer) error {
	dim := 0
	if len(c.anchors) > 0 {
		dim = len(c.anchors[0])
	}
	wire := labelpropWire{K: c.k, Gamma: c.gamma, Dim: dim, Anchors: c.anchors, Beliefs: c.beliefs}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: encoding labelprop classifier: %w", err)
	}
	return nil
}

func loadLabelprop(r io.Reader) (DomainClassifier, error) {
	var wire labelpropWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding labelprop classifier: %w", err)
	}
	if wire.K <= 0 || wire.Gamma <= 0 {
		return nil, fmt.Errorf("core: corrupt labelprop classifier: k=%d gamma=%g", wire.K, wire.Gamma)
	}
	if len(wire.Anchors) != len(wire.Beliefs) {
		return nil, fmt.Errorf("core: corrupt labelprop classifier: %d anchors vs %d beliefs",
			len(wire.Anchors), len(wire.Beliefs))
	}
	for i, a := range wire.Anchors {
		if len(a) != wire.Dim {
			return nil, fmt.Errorf("core: corrupt labelprop classifier: anchor %d has dim %d, want %d",
				i, len(a), wire.Dim)
		}
	}
	return &labelpropClassifier{
		k: wire.K, gamma: wire.Gamma,
		anchors: wire.Anchors, beliefs: wire.Beliefs,
	}, nil
}

// ---- ensemble ----

// combiner folds per-member decision values into one.
type combiner struct {
	name string
	fold func(values []float64) float64
}

var (
	combineMean = combiner{name: "mean", fold: func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}}
	combineMax = combiner{name: "max", fold: func(vs []float64) float64 {
		m := math.Inf(-1)
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}}
)

// ensembleMembers are the backends an ensemble combines. The member
// decision axes differ in scale (the SVM margin is unbounded, the
// labelprop vote lives in [-1, 1]); each member's decision values are
// standardized over the training set before combining so neither
// dominates by units.
var ensembleMembers = []string{DefaultClassifier, "labelprop"}

// ensembleClassifier fits every member on the same training matrix and
// combines standardized decision values.
type ensembleClassifier struct {
	name    string
	combine combiner
	members []DomainClassifier
	// shift and scale standardize member i's decision values, fitted
	// on the training set.
	shift []float64
	scale []float64
}

func ensembleFactory(name string, combine combiner) ClassifierFactory {
	return func(cfg Config) DomainClassifier {
		members := make([]DomainClassifier, len(ensembleMembers))
		for i, m := range ensembleMembers {
			members[i] = classifiers[m](cfg)
		}
		return &ensembleClassifier{name: name, combine: combine, members: members}
	}
}

func (c *ensembleClassifier) Name() string { return c.name }

func (c *ensembleClassifier) Fit(X [][]float64, y []int) error {
	c.shift = make([]float64, len(c.members))
	c.scale = make([]float64, len(c.members))
	for i, m := range c.members {
		if err := m.Fit(X, y); err != nil {
			return fmt.Errorf("core: ensemble member %s: %w", m.Name(), err)
		}
		mean, std := 0.0, 0.0
		for _, row := range X {
			mean += m.Decision(row)
		}
		mean /= float64(len(X))
		for _, row := range X {
			d := m.Decision(row) - mean
			std += d * d
		}
		std = math.Sqrt(std / float64(len(X)))
		if std < 1e-12 {
			std = 1
		}
		c.shift[i], c.scale[i] = mean, std
	}
	return nil
}

func (c *ensembleClassifier) Decision(x []float64) float64 {
	vs := make([]float64, len(c.members))
	for i, m := range c.members {
		vs[i] = (m.Decision(x) - c.shift[i]) / c.scale[i]
	}
	return c.combine.fold(vs)
}

// SVM exposes the first SVM-backed member, so support-vector counts
// stay reportable for ensembles.
func (c *ensembleClassifier) SVM() *svm.Model {
	for _, m := range c.members {
		if sb, ok := m.(svmBacked); ok {
			return sb.SVM()
		}
	}
	return nil
}

// ensembleWire is the persisted envelope preceding the member blobs
// (exported fields only; TestEnsembleRoundTrip compares every reloaded
// decision).
type ensembleWire struct {
	Members []string
	Shift   []float64
	Scale   []float64
}

func (c *ensembleClassifier) Save(w io.Writer) error {
	wire := ensembleWire{Members: make([]string, len(c.members)), Shift: c.shift, Scale: c.scale}
	for i, m := range c.members {
		wire.Members[i] = m.Name()
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: encoding ensemble envelope: %w", err)
	}
	for _, m := range c.members {
		if err := m.Save(w); err != nil {
			return fmt.Errorf("core: saving ensemble member %s: %w", m.Name(), err)
		}
	}
	return nil
}

func loadEnsemble(name string, combine combiner) ClassifierLoader {
	return func(r io.Reader) (DomainClassifier, error) {
		var wire ensembleWire
		if err := gob.NewDecoder(r).Decode(&wire); err != nil {
			return nil, fmt.Errorf("core: decoding ensemble envelope: %w", err)
		}
		if len(wire.Members) == 0 || len(wire.Shift) != len(wire.Members) || len(wire.Scale) != len(wire.Members) {
			return nil, fmt.Errorf("core: corrupt ensemble envelope: %d members, %d shifts, %d scales",
				len(wire.Members), len(wire.Shift), len(wire.Scale))
		}
		members := make([]DomainClassifier, len(wire.Members))
		for i, mn := range wire.Members {
			if mn == name || mn == "ensemble" || mn == "ensemble-max" {
				return nil, fmt.Errorf("core: corrupt ensemble envelope: nested ensemble member %q", mn)
			}
			m, err := loadClassifier(mn, r)
			if err != nil {
				return nil, fmt.Errorf("core: loading ensemble member %s: %w", mn, err)
			}
			members[i] = m
		}
		for i, s := range wire.Scale {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(wire.Shift[i]) || math.IsInf(wire.Shift[i], 0) {
				return nil, fmt.Errorf("core: corrupt ensemble envelope: member %d scale=%g shift=%g",
					i, s, wire.Shift[i])
			}
		}
		return &ensembleClassifier{
			name: name, combine: combine, members: members,
			shift: wire.Shift, scale: wire.Scale,
		}, nil
	}
}

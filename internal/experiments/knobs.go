package experiments

// The embedding-stage ablations of DESIGN.md §4: the query view pruned,
// projected and embedded with one knob moved off DefaultKnobs, then an
// SVM cross-validated over the resulting vectors. Every cell shares the
// Env's pipeline aggregates and labeled set.

import (
	"fmt"
	"strings"

	"repro/internal/bipartite"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/line"
	"repro/internal/svm"
)

// Knobs is one point of the ablation grid.
type Knobs struct {
	MinSim    float64               // projection edge threshold; 0 keeps every overlap
	Prune     bipartite.PruneConfig // §4.1 domain pruning
	Order     line.Order
	Dim       int
	Negatives int // LINE negative samples per positive edge
	Measure   bipartite.Measure
}

// DefaultKnobs is the grid's base point: the paper's pruning, Jaccard
// weights, both LINE orders, k=32, five negatives, threshold 0.02.
var DefaultKnobs = Knobs{MinSim: 0.02, Prune: bipartite.DefaultPrune, Order: line.OrderBoth,
	Dim: 32, Negatives: 5, Measure: bipartite.MeasureJaccard}

// KnobCell is one named cell of the grid: Sweep names the row (the knob
// it moves), Name the cell.
type KnobCell struct {
	Sweep, Name string
	Knobs       Knobs
}

// knob returns the cell at DefaultKnobs with set applied (nil: none).
func knob(sweep, name string, set func(*Knobs)) KnobCell {
	k := DefaultKnobs
	if set != nil {
		set(&k)
	}
	return KnobCell{sweep, name, k}
}

// KnobGrid is the ablation grid, row by row. Five cells (both, dim32,
// paper, jaccard, neg5) sit at DefaultKnobs.
var KnobGrid = []KnobCell{
	knob("LINE order", "first", func(k *Knobs) { k.Order = line.OrderFirst }),
	knob("LINE order", "second", func(k *Knobs) { k.Order = line.OrderSecond }),
	knob("LINE order", "both", nil),
	knob("Embedding dim", "dim8", func(k *Knobs) { k.Dim = 8 }),
	knob("Embedding dim", "dim16", func(k *Knobs) { k.Dim = 16 }),
	knob("Embedding dim", "dim32", nil),
	knob("Embedding dim", "dim64", func(k *Knobs) { k.Dim = 64 }),
	knob("Projection threshold", "keepall", func(k *Knobs) { k.MinSim = 0 }),
	knob("Projection threshold", "t01", func(k *Knobs) { k.MinSim = 0.01 }),
	knob("Projection threshold", "t05", func(k *Knobs) { k.MinSim = 0.05 }),
	knob("Projection threshold", "t10", func(k *Knobs) { k.MinSim = 0.10 }),
	knob("Pruning", "paper", nil),
	knob("Pruning", "off", func(k *Knobs) { k.Prune = bipartite.PruneConfig{MaxHostFrac: 1.0, MinHosts: 1} }),
	knob("Similarity measure", "jaccard", nil),
	knob("Similarity measure", "cosine", func(k *Knobs) { k.Measure = bipartite.MeasureCosine }),
	knob("Similarity measure", "overlap", func(k *Knobs) { k.Measure = bipartite.MeasureOverlap }),
	knob("Negative samples", "neg1", func(k *Knobs) { k.Negatives = 1 }),
	knob("Negative samples", "neg5", nil),
	knob("Negative samples", "neg10", func(k *Knobs) { k.Negatives = 10 }),
}

// SweepKnobs returns auc of every KnobGrid cell, in grid order (auc is
// Env.KnobAUC, or a fake in tests). Cells with equal knobs share one
// call; evals reports how many ran.
func SweepKnobs(auc func(Knobs) (float64, error)) (aucs []float64, evals int, err error) {
	memo := make(map[Knobs]float64, len(KnobGrid))
	aucs = make([]float64, len(KnobGrid))
	for i, c := range KnobGrid {
		v, ok := memo[c.Knobs]
		if !ok {
			if v, err = auc(c.Knobs); err != nil {
				return nil, 0, fmt.Errorf("experiments: ablation %s/%s: %w", c.Sweep, c.Name, err)
			}
			memo[c.Knobs] = v
		}
		aucs[i] = v
	}
	return aucs, len(memo), nil
}

// KnobAUC embeds the query view under k and returns the AUC of an SVM
// over the labeled domains that view retains. The protocol is fixed
// (5 folds, CV seed 7, 2M LINE samples, LINE seed 5), so the Env's
// options do not move it.
func (e *Env) KnobAUC(k Knobs) (float64, error) {
	proc := e.Detector.Processor()
	q, _, _ := bipartite.Build(proc.Stats(), proc.DeviceCount(), k.Prune)
	proj := bipartite.Project(q, bipartite.ProjectConfig{Measure: k.Measure, MinSimilarity: k.MinSim})
	edges := make([]graph.Edge, len(proj.Edges))
	for i, pe := range proj.Edges {
		edges[i] = graph.Edge{U: pe.U, V: pe.V, W: pe.W}
	}
	g, err := graph.Build(len(q.Domains), edges)
	if err != nil {
		return 0, err
	}
	emb, err := line.Train(g, line.Config{Dim: k.Dim, Order: k.Order, Negatives: k.Negatives, Samples: 2_000_000, Seed: 5})
	if err != nil {
		return 0, err
	}
	idx := q.DomainIndex()
	var X [][]float64
	var y []int
	for i, d := range e.Domains {
		if j, ok := idx[d]; ok {
			X = append(X, emb.Vectors[j])
			y = append(y, e.Labels[i])
		}
	}
	scores, err := rowsCV(X, y, 5, 7, func(tx [][]float64, ty []int) (func([]float64) float64, error) {
		m, err := svm.Train(tx, ty, svm.Config{})
		if err != nil {
			return nil, err
		}
		return m.Decision, nil
	})
	if err != nil {
		return 0, err
	}
	return eval.AUC(scores, y)
}

// RenderKnobs formats SweepKnobs' AUCs as EXPERIMENTS.md's ablation
// table: one row per sweep, its cells in grid order.
func RenderKnobs(aucs []float64) string {
	var b strings.Builder
	b.WriteString("| Ablation | AUC |\n|---|---|\n")
	for i, c := range KnobGrid {
		sep := ", "
		if i == 0 || c.Sweep != KnobGrid[i-1].Sweep {
			sep = "| " + c.Sweep + " | "
		}
		fmt.Fprintf(&b, "%s%s %.4f", sep, c.Name, aucs[i])
		if i == len(KnobGrid)-1 || KnobGrid[i+1].Sweep != c.Sweep {
			b.WriteString(" |\n")
		}
	}
	return b.String()
}

package experiments

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/eval"
	"repro/internal/exposure"
	"repro/internal/j48"
)

// ClassificationResult is one classifier evaluation under k-fold CV.
type ClassificationResult struct {
	Name  string
	AUC   float64
	Curve []eval.ROCPoint
	// Confusion at the zero-threshold operating point.
	Confusion eval.Confusion
	// Scores holds the pooled out-of-fold decision values, index-aligned
	// with the Env's Domains/Labels (every domain scored exactly once by
	// a model that never saw it).
	Scores []float64
}

// Fig6 evaluates the paper's full system — SVM over the combined
// three-view embedding — with k-fold cross-validation, reproducing the
// ROC of Figure 6 (paper AUC: 0.94).
func (e *Env) Fig6() (ClassificationResult, error) {
	return e.ClassifierCV("combined", "", bipartite.Views...)
}

// Fig7 evaluates each view's embedding alone, reproducing Figure 7
// (paper AUCs: query 0.89, IP 0.83, temporal 0.65).
func (e *Env) Fig7() (map[bipartite.View]ClassificationResult, error) {
	out := make(map[bipartite.View]ClassificationResult, 3)
	for _, v := range bipartite.Views {
		r, err := e.ClassifierCV(v.String(), "", v)
		if err != nil {
			return nil, fmt.Errorf("view %v: %w", v, err)
		}
		out[v] = r
	}
	return out, nil
}

// ClassifierCV cross-validates the named classification backend ("" =
// the configured default) on embeddings from the given views. Over
// Envs built with each Options.Embedder it is the backend grid.
func (e *Env) ClassifierCV(name, classifier string, views ...bipartite.View) (ClassificationResult, error) {
	scores, err := eval.CrossValidate(e.Labels, e.Opts.KFolds, e.Opts.Seed^0xf01d5,
		func(trainIdx []int) (func(int) float64, error) {
			td := make([]string, len(trainIdx))
			tl := make([]int, len(trainIdx))
			for i, idx := range trainIdx {
				td[i] = e.Domains[idx]
				tl[i] = e.Labels[idx]
			}
			clf, err := e.Detector.TrainClassifierNamed(classifier, td, tl, views...)
			if err != nil {
				return nil, err
			}
			return func(i int) float64 {
				s, _ := clf.Score(e.Domains[i])
				return s
			}, nil
		})
	if err != nil {
		return ClassificationResult{}, err
	}
	return summarize(name, scores, e.Labels)
}

// ExposureBaseline reproduces the §8.2 comparison: the Exposure feature
// groups (time, DNS-answer, TTL, lexical) feeding a J48 decision tree,
// cross-validated on the same labeled set (paper AUC: 0.88).
func (e *Env) ExposureBaseline() (ClassificationResult, error) {
	stats := e.Detector.Processor().Stats()
	days := e.Scenario.Config.Days
	X := exposure.ExtractAll(stats, e.Domains, days)

	scores, err := rowsCV(X, e.Labels, e.Opts.KFolds, e.Opts.Seed^0xe4905,
		func(tx [][]float64, ty []int) (func([]float64) float64, error) {
			tree, err := j48.Train(tx, ty, j48.Config{})
			if err != nil {
				return nil, err
			}
			return func(x []float64) float64 { return tree.Score(x) - 0.5 }, nil
		})
	if err != nil {
		return ClassificationResult{}, err
	}
	return summarize("exposure-j48", scores, e.Labels)
}

// rowsCV cross-validates fit over feature rows X with labels y and
// returns the pooled out-of-fold scores.
func rowsCV(X [][]float64, y []int, k int, seed uint64,
	fit func(tx [][]float64, ty []int) (func([]float64) float64, error)) ([]float64, error) {
	return eval.CrossValidate(y, k, seed, func(trainIdx []int) (func(int) float64, error) {
		tx := make([][]float64, len(trainIdx))
		ty := make([]int, len(trainIdx))
		for i, j := range trainIdx {
			tx[i], ty[i] = X[j], y[j]
		}
		score, err := fit(tx, ty)
		if err != nil {
			return nil, err
		}
		return func(i int) float64 { return score(X[i]) }, nil
	})
}

func summarize(name string, scores []float64, labels []int) (ClassificationResult, error) {
	auc, err := eval.AUC(scores, labels)
	if err != nil {
		return ClassificationResult{}, err
	}
	curve, err := eval.ROC(scores, labels)
	if err != nil {
		return ClassificationResult{}, err
	}
	return ClassificationResult{
		Name:      name,
		AUC:       auc,
		Curve:     curve,
		Confusion: eval.Confusions(scores, labels),
		Scores:    scores,
	}, nil
}

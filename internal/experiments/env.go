// Package experiments is the one implementation of every table and
// figure of the paper's evaluation (§7-§8) and of every ablation,
// against the synthetic campus scenario. cmd/experiments is its one
// entry point (EXPERIMENTS.md's tables, BENCH_8.json); the package's
// tests check each artefact's shape at small scale.
//
// Per-artifact index (see DESIGN.md §3 for the full mapping):
//
//	Fig1                traffic volume and unique FQDN/e2LD series
//	Table1/2            spam and DGA cluster examples with threat-intel tags
//	Fig4                seed-expansion discovery counts
//	Fig5                t-SNE layout of five random clusters
//	Fig6                combined-feature ROC / AUC under 10-fold CV
//	Fig7                per-view AUCs
//	§8.2                Exposure (J48 over statistical features) baseline AUC
//	BeliefPropBaseline  graph-inference baseline AUC (beyond the paper)
//	SelfTraining        §7.2.1 label acquisition rounds
//	FlowPatterns        §7.2.2 per-family C&C traffic patterns
//	KnobAUC, SweepKnobs embedding-stage ablations (DESIGN.md §4)
//	ClassifierCV        any registered classifier over any views; per
//	                    Options.Embedder, the backend grid (BENCH_8.json)
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/threatintel"
)

// Options tunes environment construction.
type Options struct {
	// Seed drives the scenario, detector and threat-intel feeds.
	Seed uint64
	// EmbedDim is the per-view embedding size (default 32).
	EmbedDim int
	// MaxLabeled stratified-subsamples the labeled set to at most this
	// many domains (0 = no cap). The SVM's SMO is quadratic-ish in the
	// training size, so long runs cap this.
	MaxLabeled int
	// KFolds for cross-validation (default 10, the paper's k).
	KFolds int
	// Embedder selects the feature-learning backend by registered name
	// ("" = line), for the backend ablation sweep.
	Embedder string
}

func (o Options) withDefaults() Options {
	if o.EmbedDim <= 0 {
		o.EmbedDim = 32
	}
	if o.KFolds <= 0 {
		o.KFolds = 10
	}
	return o
}

// Env is a fully built experimental world: generated traffic folded into
// a detector with a trained embedding model, simulated threat-intel
// feeds, and the labeled domain set of §6.1. Build is expensive; reuse
// the Env across experiments (its model is immutable).
type Env struct {
	Opts     Options
	Scenario *dnssim.Scenario
	Detector *core.Detector
	TI       *threatintel.Service

	// Labeled set (post-pruning, confirmation rule applied), aligned.
	Domains []string
	Labels  []int

	// clusters caches the all-domain X-Means model shared by the
	// cluster-based experiments (Tables 1-2, Fig 4, Fig 5).
	clusters *clusterModel
}

// Build constructs an Env for the scenario configuration.
func Build(scfg dnssim.Config, opts Options) (*Env, error) {
	opts = opts.withDefaults()
	s := dnssim.NewScenario(scfg)
	det := core.NewDetector(core.Config{
		Start:             scfg.Start,
		Days:              scfg.Days,
		DHCP:              s.DHCP(),
		EmbedDim:          opts.EmbedDim,
		MinSimilarity:     0.05, // bounds graph memory, trims coincidental overlaps
		TimeMinSimilarity: 0.015,
		Seed:              opts.Seed,
		Embedder:          opts.Embedder,
	})
	s.Generate(func(ev dnssim.Event) { det.Consume(pipeline.Input(ev)) })
	if err := det.BuildModel(); err != nil {
		return nil, fmt.Errorf("experiments: building model: %w", err)
	}
	ti := threatintel.NewService(s.TruthTable(), threatintel.Config{Seed: opts.Seed})

	retained, err := det.Domains()
	if err != nil {
		return nil, err
	}
	domains, labels := ti.LabeledSet(retained)
	if opts.MaxLabeled > 0 && len(domains) > opts.MaxLabeled {
		domains, labels = subsample(domains, labels, opts.MaxLabeled, opts.Seed)
	}
	return &Env{
		Opts:     opts,
		Scenario: s,
		Detector: det,
		TI:       ti,
		Domains:  domains,
		Labels:   labels,
	}, nil
}

// subsample keeps a stratified random subset of size n.
func subsample(domains []string, labels []int, n int, seed uint64) ([]string, []int) {
	rng := mathx.NewRNG(seed).SplitLabeled("subsample")
	byClass := map[int][]int{}
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	frac := float64(n) / float64(len(domains))
	var keep []int
	for _, c := range []int{0, 1} {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		take := min(int(frac*float64(len(idx))+0.5), len(idx))
		keep = append(keep, idx[:take]...)
	}
	sort.Ints(keep)
	outD := make([]string, len(keep))
	outL := make([]int, len(keep))
	for i, k := range keep {
		outD[i] = domains[k]
		outL[i] = labels[k]
	}
	return outD, outL
}

// LabeledSummary reports the class balance of the labeled set.
func (e *Env) LabeledSummary() (total, malicious int) {
	for _, l := range e.Labels {
		malicious += l
	}
	return len(e.Labels), malicious
}

// Command experiments regenerates every table and figure of the paper's
// evaluation and every ablation against the synthetic campus scenario,
// and prints a paper-vs-measured report (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-scale small|full] [-seed N]
//	            [-run all|fig1,fig4,fig5,fig6,fig7,table1,table2,exposure,beliefprop,selftrain,flows,knobs]
//	            [-max-labeled N] [-kfolds K] [-embed-dim D] [-svg FILE]
//	experiments -ablation [-scale small|full] [-seed N] [-kfolds K] > BENCH_8.json
//
// "all" runs every paper artefact; knobs, the embedding-stage ablation
// grid of DESIGN.md §4 (query-view AUC, 19 cells), runs only when named.
// An unknown id exits 2 before anything is built. -ablation
// cross-validates every {line, mf} embedder × {svm, labelprop, ensemble}
// classifier pairing Fig-6-style and writes BENCH_8.json to stdout, keyed
// by "BenchmarkAblation/<embedder>_<classifier>" with the AUC in metrics.
//
// The full scale reproduces the paper's scope (a month of traffic,
// >10,000 labeled domains); small finishes in well under a minute.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/bipartite"
	"repro/internal/dnssim"
	"repro/internal/experiments"
)

var (
	scale      = flag.String("scale", "small", "scenario scale: small or full")
	seed       = flag.Uint64("seed", 1, "experiment seed")
	run        = flag.String("run", "all", "comma-separated experiment ids or 'all': "+validIDs())
	maxLabeled = flag.Int("max-labeled", 0, "cap the labeled set (0 = no cap)")
	kfolds     = flag.Int("kfolds", 10, "cross-validation folds")
	embedDim   = flag.Int("embed-dim", 32, "per-view embedding dimension")
	svgOut     = flag.String("svg", "", "write the Figure 5 scatter to this SVG file")
	ablation   = flag.Bool("ablation", false, "sweep the embedder x classifier backend grid and write BENCH_8.json to stdout")
)

// experiment is one -run id: a titled section of the report.
type experiment struct {
	id, title string
	report    func(*experiments.Env) error
}

// experimentTable lists the -run ids in report order.
var experimentTable = []experiment{
	{"fig1", "Figure 1 — DNS query volume and unique FQDN/e2LD counts per day", func(env *experiments.Env) error {
		fmt.Print(experiments.RenderFig1(env.Fig1()))
		return nil
	}},
	{"fig6", "Figure 6 — combined three-view embedding, SVM, k-fold CV", func(env *experiments.Env) error {
		res, err := env.Fig6()
		if err != nil {
			return err
		}
		fmt.Printf("AUC = %.4f   (paper: 0.94)\n", res.AUC)
		c := res.Confusion
		fmt.Printf("at threshold 0: acc=%.3f prec=%.3f rec=%.3f f1=%.3f\n",
			c.Accuracy(), c.Precision(), c.Recall(), c.F1())
		fmt.Println("ROC (fpr tpr):")
		// A decimated curve: at most ~20 points, then the last.
		step := max(len(res.Curve)/20, 1)
		for i := 0; i < len(res.Curve); i += step {
			fmt.Printf("  %.3f %.3f\n", res.Curve[i].FPR, res.Curve[i].TPR)
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  %.3f %.3f\n", last.FPR, last.TPR)
		return nil
	}},
	{"fig7", "Figure 7 — per-view AUCs", func(env *experiments.Env) error {
		per, err := env.Fig7()
		if err != nil {
			return err
		}
		fmt.Printf("query    AUC = %.4f   (paper: 0.89)\n", per[bipartite.ViewQuery].AUC)
		fmt.Printf("ip       AUC = %.4f   (paper: 0.83)\n", per[bipartite.ViewIP].AUC)
		fmt.Printf("temporal AUC = %.4f   (paper: 0.65)\n", per[bipartite.ViewTime].AUC)
		return nil
	}},
	{"exposure", "§8.2 — Exposure baseline (J48 over statistical features)",
		aucReport((*experiments.Env).ExposureBaseline, "(paper: 0.88, i.e. ours +6.8%)")},
	{"beliefprop", "Extension — graph-inference baseline (belief propagation, §9 related work)",
		aucReport((*experiments.Env).BeliefPropBaseline, "(not evaluated in the paper; quantifies the embedding's added value)")},
	{"table1", "Table 1 — spam domain cluster (wordlist style)", styleCluster("wordlist")},
	{"table2", "Table 2 — Conficker DGA domain cluster", styleCluster("conficker")},
	{"fig4", "Figure 4 — newly discovered malicious domains vs seed size", func(env *experiments.Env) error {
		pts, err := env.Fig4([]int{0, 25, 50, 75, 100, 125, 150, 175, 200})
		if err != nil {
			return err
		}
		fmt.Printf("%8s %8s %12s\n", "seeds", "true", "suspicious")
		for _, p := range pts {
			fmt.Printf("%8d %8d %12d\n", p.SeedSize, p.True, p.Suspicious)
		}
		return nil
	}},
	{"fig5", "Figure 5 — t-SNE of five random clusters", func(env *experiments.Env) error {
		res, err := env.Fig5()
		if err != nil {
			return err
		}
		fmt.Printf("%d domains across 5 clusters (glyphs o x + * #)\n", len(res.Domains))
		fmt.Print(res.ASCII(24, 76))
		if *svgOut != "" {
			if err := os.WriteFile(*svgOut, []byte(res.SVG(640, 480)), 0o644); err != nil {
				return err
			}
			fmt.Printf("(SVG written to %s)\n", *svgOut)
		}
		return nil
	}},
	{"selftrain", "§7.2.1 — self-training with acquired labels", func(env *experiments.Env) error {
		rounds, err := env.SelfTraining(5, 200)
		if err != nil {
			return err
		}
		fmt.Printf("%6s %10s %10s %8s %10s\n", "round", "train_mal", "train_ben", "added", "heldout_auc")
		for _, r := range rounds {
			fmt.Printf("%6d %10d %10d %8d %10.4f\n",
				r.Round, r.TrainMalicious, r.TrainBenign, r.Added, r.HeldOutAUC)
		}
		return nil
	}},
	{"flows", "§7.2.2 — per-family C&C traffic patterns", func(env *experiments.Env) error {
		fmt.Print(env.FlowPatterns())
		return nil
	}},
	{"knobs", "Ablations — query-view AUC, 5-fold CV, one knob moved per cell", func(env *experiments.Env) error {
		aucs, evals, err := experiments.SweepKnobs(env.KnobAUC)
		if err != nil {
			return err
		}
		fmt.Printf("%d cells, %d evaluations\n", len(aucs), evals)
		fmt.Print(experiments.RenderKnobs(aucs))
		return nil
	}},
}

func aucReport(cv func(*experiments.Env) (experiments.ClassificationResult, error), note string) func(*experiments.Env) error {
	return func(env *experiments.Env) error {
		res, err := cv(env)
		if err == nil {
			fmt.Printf("AUC = %.4f   %s\n", res.AUC, note)
		}
		return err
	}
}

func styleCluster(style string) func(*experiments.Env) error {
	return func(env *experiments.Env) error {
		reports, err := env.Clusters()
		if err != nil {
			return err
		}
		r, ok := experiments.FindStyleCluster(reports, style)
		if !ok {
			fmt.Printf("no %s-majority cluster found\n", style)
			return nil
		}
		fmt.Printf("cluster %d: %d domains, %.0f%% tagged %s by threat intel\n",
			r.ID, len(r.Domains), 100*r.TaggedFrac, r.MajorityFamily)
		for i := 0; i < len(r.Domains) && i < 18; i += 3 {
			for _, d := range r.Domains[i:min(i+3, len(r.Domains))] {
				fmt.Printf("  %-28s", d)
			}
			fmt.Println()
		}
		return nil
	}
}

func validIDs() string {
	ids := []string{"all"}
	for _, x := range experimentTable {
		ids = append(ids, x.id)
	}
	return strings.Join(ids, ",")
}

// parseRun returns the set of ids a -run list selects: "all" is every id
// but knobs, which runs only when named.
func parseRun(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		found := false
		for _, x := range experimentTable {
			if id == x.id || id == "all" && x.id != "knobs" {
				want[x.id], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment id %q; valid ids: %s", id, validIDs())
		}
	}
	return want, nil
}

func main() {
	flag.Parse()
	want, err := parseRun(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := runMain(want); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runMain(want map[string]bool) error {
	var cfg dnssim.Config
	switch *scale {
	case "small":
		cfg = dnssim.SmallScenario(*seed)
	case "full":
		cfg = dnssim.DefaultScenario(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	opts := experiments.Options{Seed: *seed, MaxLabeled: *maxLabeled, KFolds: *kfolds, EmbedDim: *embedDim}
	if *ablation {
		return runAblation(cfg, opts)
	}

	started := time.Now()
	fmt.Fprintf(os.Stderr, "building environment (scale=%s seed=%d)...\n", *scale, *seed)
	env, err := experiments.Build(cfg, opts)
	if err != nil {
		return err
	}
	st, err := env.Detector.Stats()
	if err != nil {
		return err
	}
	total, mal := env.LabeledSummary()
	fmt.Printf("# Environment (built in %s)\n", time.Since(started).Round(time.Second))
	fmt.Printf("hosts=%d days=%d devices=%d queries=%d\n",
		cfg.Hosts, cfg.Days, st.Devices, st.TotalQueries)
	fmt.Printf("observed e2LDs=%d retained=%d labeled=%d (%.0f%% malicious)\n",
		st.ObservedE2LDs, st.RetainedE2LDs, total, 100*float64(mal)/float64(total))
	for _, v := range bipartite.Views {
		fmt.Printf("%s projection: %d edges\n", v, st.ProjectionEdges[v])
	}
	fmt.Println()
	for _, x := range experimentTable {
		if !want[x.id] {
			continue
		}
		fmt.Println("# " + x.title)
		if err := x.report(env); err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(started).Round(time.Second))
	return nil
}

// benchResult is one BENCH_8.json entry, in the schema the repository's
// BENCH files share.
type benchResult struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  int                `json:"bytes_per_op"`
	AllocsPerOp int                `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

// runAblation cross-validates every embedder × classifier pairing over
// the combined views, one Env per embedder, and writes BENCH_8.json.
func runAblation(cfg dnssim.Config, opts experiments.Options) error {
	classifiers := []string{"svm", "labelprop", "ensemble"}
	out := map[string]*benchResult{}
	for _, emb := range []string{"line", "mf"} {
		fmt.Fprintf(os.Stderr, "ablation: %s x %v (seed=%d kfolds=%d)\n", emb, classifiers, opts.Seed, opts.KFolds)
		started := time.Now()
		opts.Embedder = emb
		env, err := experiments.Build(cfg, opts)
		if err != nil {
			return err
		}
		var row []*benchResult
		for _, clf := range classifiers {
			res, err := env.ClassifierCV(emb+"_"+clf, clf, bipartite.Views...)
			if err != nil {
				return fmt.Errorf("ablation %s+%s: %w", emb, clf, err)
			}
			// Six decimals, as BENCH_8.json has always recorded them.
			r := &benchResult{Iterations: 1, Metrics: map[string]float64{"auc": math.Round(res.AUC*1e6) / 1e6}}
			out["BenchmarkAblation/"+emb+"_"+clf] = r
			row = append(row, r)
		}
		// The build and the classifiers' CVs share one clock; each cell is
		// charged an equal part.
		per := time.Since(started) / time.Duration(len(row))
		for _, r := range row {
			r.NsPerOp = per.Nanoseconds()
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

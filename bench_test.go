// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices listed
// in DESIGN.md §4. Each benchmark reports its headline quality metric
// (AUC, cluster count, discovered domains, ...) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates both the cost and the result
// of every experiment at test scale; run `cmd/experiments -scale full`
// for the paper-scale numbers recorded in EXPERIMENTS.md.
package maldomain_test

import (
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dnssim"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/line"
	"repro/internal/svm"
)

// benchEnv lazily builds one shared small-scale environment. Building
// costs ~20s; every benchmark that only *evaluates* (classify, cluster,
// expand) reuses it, while generation/build benches construct their own.
var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.Build(dnssim.SmallScenario(1234),
			experiments.Options{Seed: 1234, KFolds: 5})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// BenchmarkTable1SpamCluster regenerates Table 1: X-Means over the
// combined embeddings must surface a majority-spam (.bid wordlist)
// cluster.
func BenchmarkTable1SpamCluster(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := env.Clusters()
		if err != nil {
			b.Fatal(err)
		}
		r, ok := experiments.FindStyleCluster(reports, "wordlist")
		if !ok {
			b.Fatal("no spam cluster found")
		}
		b.ReportMetric(float64(len(r.Domains)), "cluster_size")
		b.ReportMetric(r.TaggedFrac, "purity")
	}
}

// BenchmarkTable2DGACluster regenerates Table 2: the Conficker-style DGA
// cluster.
func BenchmarkTable2DGACluster(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := env.Clusters()
		if err != nil {
			b.Fatal(err)
		}
		r, ok := experiments.FindStyleCluster(reports, "conficker")
		if !ok {
			b.Fatal("no DGA cluster found")
		}
		b.ReportMetric(float64(len(r.Domains)), "cluster_size")
		b.ReportMetric(r.TaggedFrac, "purity")
	}
}

// BenchmarkFig4SeedExpansion regenerates Figure 4: discovery counts from
// cluster expansion with a seed of known malicious domains.
func BenchmarkFig4SeedExpansion(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := env.Fig4([]int{0, 10, 25, 50})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.True), "true_found")
		b.ReportMetric(float64(last.Suspicious), "suspicious")
	}
}

// BenchmarkFig5TSNE regenerates Figure 5: the 2-D t-SNE layout of five
// random domain clusters.
func BenchmarkFig5TSNE(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Layout)), "points")
	}
}

// BenchmarkFig7PerViewROC regenerates Figure 7: single-view AUCs (paper:
// query 0.89, IP 0.83, temporal 0.65).
func BenchmarkFig7PerViewROC(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per, err := env.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(per[bipartite.ViewQuery].AUC, "auc_query")
		b.ReportMetric(per[bipartite.ViewIP].AUC, "auc_ip")
		b.ReportMetric(per[bipartite.ViewTime].AUC, "auc_time")
	}
}

// BenchmarkExposureBaseline regenerates the §8.2 comparison: the Exposure
// statistical-feature extractor with a J48 tree (paper AUC: 0.88).
func BenchmarkExposureBaseline(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.ExposureBaseline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AUC, "auc")
	}
}

// BenchmarkBeliefPropBaseline evaluates the graph-inference extension
// baseline (belief propagation over the host-domain graph).
func BenchmarkBeliefPropBaseline(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.BeliefPropBaseline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AUC, "auc")
	}
}

// BenchmarkSelfTraining runs the §7.2.1 label-acquisition loop.
func BenchmarkSelfTraining(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds, err := env.SelfTraining(3, 80)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rounds[len(rounds)-1].HeldOutAUC, "final_auc")
	}
}

// ---- Ablations (DESIGN.md §4) ----

// ablationAUC trains/evaluates an SVM over embeddings of the query-view
// projection built with the given knobs, reporting 5-fold CV AUC.
func ablationAUC(b *testing.B, env *experiments.Env, minSim float64, prune bipartite.PruneConfig,
	order line.Order, dim, negatives int) float64 {
	b.Helper()
	proc := env.Detector.Processor()
	q, _, _ := bipartite.Build(proc.Stats(), proc.DeviceCount(), prune)
	proj := bipartite.Project(q, bipartite.ProjectConfig{MinSimilarity: minSim})
	edges := make([]graph.Edge, len(proj.Edges))
	for i, e := range proj.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	g, err := graph.Build(len(q.Domains), edges)
	if err != nil {
		b.Fatal(err)
	}
	emb, err := line.Train(g, line.Config{
		Dim: dim, Order: order, Negatives: negatives,
		Samples: 2_000_000, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	idx := q.DomainIndex()
	var X [][]float64
	var y []int
	for i, d := range env.Domains {
		j, ok := idx[d]
		if !ok {
			continue
		}
		X = append(X, emb.Vectors[j])
		y = append(y, env.Labels[i])
	}
	scores, err := eval.CrossValidate(y, 5, 7, func(trainIdx []int) (func(int) float64, error) {
		tx := make([][]float64, len(trainIdx))
		ty := make([]int, len(trainIdx))
		for i, k := range trainIdx {
			tx[i] = X[k]
			ty[i] = y[k]
		}
		m, err := svm.Train(tx, ty, svm.Config{})
		if err != nil {
			return nil, err
		}
		return func(i int) float64 { return m.Decision(X[i]) }, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	auc, err := eval.AUC(scores, y)
	if err != nil {
		b.Fatal(err)
	}
	return auc
}

// BenchmarkAblationLINEOrder compares first-order, second-order, and
// combined LINE objectives on the query view.
func BenchmarkAblationLINEOrder(b *testing.B) {
	env := benchEnvironment(b)
	for _, tc := range []struct {
		name  string
		order line.Order
	}{
		{"first", line.OrderFirst},
		{"second", line.OrderSecond},
		{"both", line.OrderBoth},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUC(b, env, 0.02, bipartite.DefaultPrune, tc.order, 32, 5)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

// BenchmarkAblationEmbeddingDim sweeps the per-view embedding size.
func BenchmarkAblationEmbeddingDim(b *testing.B) {
	env := benchEnvironment(b)
	for _, dim := range []int{8, 16, 32, 64} {
		b.Run(benchName("dim", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUC(b, env, 0.02, bipartite.DefaultPrune, line.OrderBoth, dim, 5)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

// BenchmarkAblationProjectionThreshold sweeps the minimum Jaccard weight
// kept in the one-mode projection.
func BenchmarkAblationProjectionThreshold(b *testing.B) {
	env := benchEnvironment(b)
	for _, tc := range []struct {
		name string
		min  float64
	}{
		{"keepall", 0},
		{"t01", 0.01},
		{"t05", 0.05},
		{"t10", 0.10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUC(b, env, tc.min, bipartite.DefaultPrune, line.OrderBoth, 32, 5)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

// BenchmarkAblationPruning compares the paper's §4.1 pruning rules with
// pruning disabled (every observed domain kept).
func BenchmarkAblationPruning(b *testing.B) {
	env := benchEnvironment(b)
	for _, tc := range []struct {
		name  string
		prune bipartite.PruneConfig
	}{
		{"paper", bipartite.DefaultPrune},
		{"off", bipartite.PruneConfig{MaxHostFrac: 1.0, MinHosts: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUC(b, env, 0.02, tc.prune, line.OrderBoth, 32, 5)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

// BenchmarkAblationSimilarityMeasure compares the paper's Jaccard
// projection weights against cosine (Ochiai) and overlap coefficients.
func BenchmarkAblationSimilarityMeasure(b *testing.B) {
	env := benchEnvironment(b)
	for _, m := range []bipartite.Measure{
		bipartite.MeasureJaccard, bipartite.MeasureCosine, bipartite.MeasureOverlap,
	} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUCMeasure(b, env, m)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

// ablationAUCMeasure is ablationAUC with a custom similarity measure.
func ablationAUCMeasure(b *testing.B, env *experiments.Env, m bipartite.Measure) float64 {
	b.Helper()
	proc := env.Detector.Processor()
	q, _, _ := bipartite.Build(proc.Stats(), proc.DeviceCount(), bipartite.DefaultPrune)
	proj := bipartite.Project(q, bipartite.ProjectConfig{Measure: m, MinSimilarity: 0.02})
	edges := make([]graph.Edge, len(proj.Edges))
	for i, e := range proj.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	g, err := graph.Build(len(q.Domains), edges)
	if err != nil {
		b.Fatal(err)
	}
	emb, err := line.Train(g, line.Config{Dim: 32, Samples: 2_000_000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	idx := q.DomainIndex()
	var X [][]float64
	var y []int
	for i, d := range env.Domains {
		j, ok := idx[d]
		if !ok {
			continue
		}
		X = append(X, emb.Vectors[j])
		y = append(y, env.Labels[i])
	}
	scores, err := eval.CrossValidate(y, 5, 7, func(trainIdx []int) (func(int) float64, error) {
		tx := make([][]float64, len(trainIdx))
		ty := make([]int, len(trainIdx))
		for i, k := range trainIdx {
			tx[i] = X[k]
			ty[i] = y[k]
		}
		model, err := svm.Train(tx, ty, svm.Config{})
		if err != nil {
			return nil, err
		}
		return func(i int) float64 { return model.Decision(X[i]) }, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	auc, err := eval.AUC(scores, y)
	if err != nil {
		b.Fatal(err)
	}
	return auc
}

// BenchmarkAblationNegatives sweeps LINE's negative-sample count.
func BenchmarkAblationNegatives(b *testing.B) {
	env := benchEnvironment(b)
	for _, neg := range []int{1, 5, 10} {
		b.Run(benchName("neg", neg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				auc := ablationAUC(b, env, 0.02, bipartite.DefaultPrune, line.OrderBoth, 32, neg)
				b.ReportMetric(auc, "auc")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}

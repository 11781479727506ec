package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dnssim"
	"repro/internal/race"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// skipIfRace skips environment-building tests under the race detector:
// instrumented full-model builds add up to about a minute for this
// package. The concurrent components (bipartite, xmeans) have fast
// package-level -race tests; this package orchestrates them
// sequentially.
func skipIfRace(t testing.TB) {
	t.Helper()
	if race.Enabled {
		t.Skip("model build too slow under the race detector; components are race-tested per package")
	}
}

// testEnv builds one shared small-scenario environment per test binary.
func testEnv(t testing.TB) *Env {
	t.Helper()
	skipIfRace(t)
	envOnce.Do(func() {
		envVal, envErr = Build(dnssim.SmallScenario(77), Options{Seed: 77, KFolds: 5})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestBuildEnv(t *testing.T) {
	e := testEnv(t)
	total, mal := e.LabeledSummary()
	if total < 200 {
		t.Fatalf("labeled set has only %d domains", total)
	}
	if mal == 0 || mal == total {
		t.Fatalf("labeled set degenerate: %d/%d malicious", mal, total)
	}
}

func TestMaxLabeledSubsampling(t *testing.T) {
	skipIfRace(t)
	e, err := Build(dnssim.SmallScenario(78), Options{Seed: 78, MaxLabeled: 100, KFolds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Domains) > 110 {
		t.Fatalf("subsample left %d domains, cap was 100", len(e.Domains))
	}
	pos := 0
	for _, l := range e.Labels {
		pos += l
	}
	if pos == 0 || pos == len(e.Labels) {
		t.Fatal("subsample lost a class")
	}
}

func TestFig1Series(t *testing.T) {
	e := testEnv(t)
	series := e.Fig1()
	if len(series) != e.Scenario.Config.Days {
		t.Fatalf("series has %d points for %d days", len(series), e.Scenario.Config.Days)
	}
	for i, pt := range series {
		if pt.Queries == 0 || pt.UniqueFQDN == 0 || pt.UniqueE2LD == 0 {
			t.Errorf("day %d has zero counts: %+v", i, pt)
		}
		if pt.UniqueE2LD > pt.UniqueFQDN {
			t.Errorf("day %d: more e2LDs (%d) than FQDNs (%d)", i, pt.UniqueE2LD, pt.UniqueFQDN)
		}
	}
	text := RenderFig1(series)
	if !strings.Contains(text, "uniq_fqdn") || len(strings.Split(text, "\n")) < len(series) {
		t.Error("RenderFig1 output malformed")
	}
}

func TestFig6CombinedAUC(t *testing.T) {
	e := testEnv(t)
	res, err := e.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("combined AUC = %.3f", res.AUC)
	if res.AUC < 0.85 {
		t.Errorf("combined AUC %.3f, want >= 0.85 (paper: 0.94)", res.AUC)
	}
	if len(res.Curve) < 3 {
		t.Error("ROC curve degenerate")
	}
}

func TestFig7PerViewAUC(t *testing.T) {
	e := testEnv(t)
	per, err := e.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range per {
		t.Logf("%v AUC = %.3f", v, r.AUC)
		if r.AUC < 0.5 {
			t.Errorf("%v view AUC %.3f below chance", v, r.AUC)
		}
	}
	if per[bipartite.ViewQuery].AUC < 0.75 {
		t.Errorf("query view AUC %.3f too low (paper: 0.89)", per[bipartite.ViewQuery].AUC)
	}
}

func TestExposureBaseline(t *testing.T) {
	e := testEnv(t)
	res, err := e.ExposureBaseline()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exposure AUC = %.3f", res.AUC)
	if res.AUC < 0.7 {
		t.Errorf("Exposure baseline AUC %.3f suspiciously low (paper: 0.88)", res.AUC)
	}
}

func TestClustersAndTables(t *testing.T) {
	e := testEnv(t)
	reports, err := e.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 4 {
		t.Fatalf("only %d clusters", len(reports))
	}
	// Table 1: a wordlist/spam cluster must exist and be family-pure.
	spam, ok := FindStyleCluster(reports, "wordlist")
	if !ok {
		t.Fatal("no spam (wordlist) cluster found for Table 1")
	}
	if len(spam.Domains) < 5 || spam.TaggedFrac < 0.5 {
		t.Errorf("spam cluster weak: %d domains, %.2f tagged", len(spam.Domains), spam.TaggedFrac)
	}
	for _, d := range spam.Domains[:min(5, len(spam.Domains))] {
		if !strings.HasSuffix(d, ".bid") {
			t.Logf("note: spam cluster member %s not on .bid", d)
		}
	}
	// Table 2: a Conficker DGA cluster must exist.
	dga, ok := FindStyleCluster(reports, "conficker")
	if !ok {
		t.Fatal("no conficker cluster found for Table 2")
	}
	if len(dga.Domains) < 5 {
		t.Errorf("dga cluster too small: %d", len(dga.Domains))
	}
}

func TestFig4SeedExpansion(t *testing.T) {
	e := testEnv(t)
	pts, err := e.Fig4([]int{0, 10, 25, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].SeedSize != 0 || pts[0].True != 0 || pts[0].Suspicious != 0 {
		t.Errorf("zero seeds should discover nothing: %+v", pts[0])
	}
	// Seeds are nested across sizes, so the total identified malicious
	// population (seeds + discovered) must be monotone non-decreasing;
	// the discovered count alone may dip as discoveries become seeds.
	for i := 1; i < len(pts); i++ {
		prev := pts[i-1].SeedSize + pts[i-1].True
		cur := pts[i].SeedSize + pts[i].True
		if cur < prev {
			t.Errorf("identified population decreased: %+v -> %+v", pts[i-1], pts[i])
		}
	}
	// At small seed counts the expansion factor must be large; at larger
	// counts the small-scale pool saturates (seeds consume the very
	// domains they would have discovered), so no factor check there.
	if pts[1].True < 2*pts[1].SeedSize {
		t.Errorf("expansion factor at %d seeds only %dx", pts[1].SeedSize, pts[1].True/max(1, pts[1].SeedSize))
	}
	t.Logf("seed expansion: %+v", pts)
}

func TestFig5TSNE(t *testing.T) {
	e := testEnv(t)
	res, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layout) != len(res.Domains) || len(res.Layout) != len(res.ClusterIDs) {
		t.Fatal("misaligned Fig5 result")
	}
	if len(res.Layout) < 16 {
		t.Fatalf("only %d points in visualization", len(res.Layout))
	}
	ascii := res.ASCII(20, 60)
	if len(strings.Split(strings.TrimRight(ascii, "\n"), "\n")) != 20 {
		t.Error("ASCII scatter malformed")
	}
}

func TestFlowPatterns(t *testing.T) {
	e := testEnv(t)
	out := e.FlowPatterns()
	if !strings.Contains(out, "conficker") || !strings.Contains(out, "ports") {
		t.Errorf("flow pattern report malformed:\n%s", out)
	}
}

func TestBeliefPropBaseline(t *testing.T) {
	e := testEnv(t)
	res, err := e.BeliefPropBaseline()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("beliefprop AUC = %.3f", res.AUC)
	if res.AUC < 0.6 {
		t.Errorf("belief propagation AUC %.3f barely above chance", res.AUC)
	}
}

func TestSelfTraining(t *testing.T) {
	e := testEnv(t)
	rounds, err := e.SelfTraining(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("got %d rounds", len(rounds))
	}
	// Training set must grow through confirmed discoveries.
	grew := false
	for i := 1; i < len(rounds); i++ {
		if rounds[i].TrainMalicious > rounds[i-1].TrainMalicious {
			grew = true
		}
		if rounds[i].TrainMalicious < rounds[i-1].TrainMalicious {
			t.Fatalf("training set shrank: %+v -> %+v", rounds[i-1], rounds[i])
		}
	}
	if !grew {
		t.Error("self-training never acquired a new label")
	}
	// Detection quality must not collapse as labels accumulate, and the
	// final round should be at least as good as the seed round (within a
	// small band for SGD/SVM noise).
	first, last := rounds[0].HeldOutAUC, rounds[len(rounds)-1].HeldOutAUC
	t.Logf("self-training AUC %.3f -> %.3f (added %d+%d+%d labels)",
		first, last, rounds[0].Added, rounds[1].Added, rounds[2].Added)
	if last < first-0.05 {
		t.Errorf("self-training degraded AUC: %.3f -> %.3f", first, last)
	}
}

func TestKnobGrid(t *testing.T) {
	var cells, atDefault []string
	for _, c := range KnobGrid {
		cells = append(cells, c.Sweep+"/"+c.Name)
		if c.Knobs == DefaultKnobs {
			atDefault = append(atDefault, c.Sweep+"/"+c.Name)
		}
	}
	want := "LINE order/first,LINE order/second,LINE order/both," +
		"Embedding dim/dim8,Embedding dim/dim16,Embedding dim/dim32,Embedding dim/dim64," +
		"Projection threshold/keepall,Projection threshold/t01,Projection threshold/t05,Projection threshold/t10," +
		"Pruning/paper,Pruning/off,Similarity measure/jaccard,Similarity measure/cosine,Similarity measure/overlap," +
		"Negative samples/neg1,Negative samples/neg5,Negative samples/neg10"
	if got := strings.Join(cells, ","); got != want {
		t.Errorf("grid cells\n%s\nwant\n%s", got, want)
	}
	want = "LINE order/both,Embedding dim/dim32,Pruning/paper,Similarity measure/jaccard,Negative samples/neg5"
	if got := strings.Join(atDefault, ","); got != want {
		t.Errorf("cells at the default knobs %s, want %s", got, want)
	}

	// Each distinct setting is evaluated once and every cell gets its
	// setting's value.
	n, calls := 0, map[Knobs]float64{}
	aucs, evals, err := SweepKnobs(func(k Knobs) (float64, error) {
		n++
		calls[k] = float64(n)
		return calls[k], nil
	})
	if err != nil || n != 15 || evals != 15 {
		t.Errorf("sweep made %d evaluations (reported %d), err %v; want 15", n, evals, err)
	}
	for i, c := range KnobGrid {
		if aucs[i] != calls[c.Knobs] {
			t.Errorf("cell %s/%s got %v, want its setting's %v", c.Sweep, c.Name, aucs[i], calls[c.Knobs])
		}
	}

	// One non-default cell (dim8), evaluated for real.
	auc, err := testEnv(t).KnobAUC(KnobGrid[3].Knobs)
	t.Logf("dim8 AUC = %.4f", auc)
	if err != nil || !(auc > 0.5 && auc <= 1) {
		t.Errorf("dim8 AUC %.4f, err %v; want in (0.5, 1]", auc, err)
	}
}

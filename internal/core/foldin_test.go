package core

import (
	"bytes"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/mathx"
	"repro/internal/race"
)

// foldinRelations builds a mixed-view relation set naming the scorer's
// first few retained domains, plus one relation to a neighbor outside
// the model (which must be ignored).
func foldinRelations(sc *Scorer) []Relation {
	doms := sc.Domains()
	return []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 2},
		{View: bipartite.ViewQuery, Neighbor: doms[1], Weight: 1},
		{View: bipartite.ViewIP, Neighbor: doms[1], Weight: 0.5},
		{View: bipartite.ViewIP, Neighbor: doms[2]},
		{View: bipartite.ViewTime, Neighbor: doms[0], Weight: 3},
		{View: bipartite.ViewTime, Neighbor: "never-retained.example", Weight: 9},
	}
}

// TestScoreObservedKnownDomain: relations must not perturb retained
// domains — the result is the exact model verdict, bit for bit.
func TestScoreObservedKnownDomain(t *testing.T) {
	sc := tinyScorer(t, 5)
	dom := sc.Domains()[0]
	res := sc.ScoreObserved(dom, foldinRelations(sc))
	want, _ := sc.Score(dom)
	if res.Score != want || !res.Known {
		t.Fatalf("known domain: ScoreObserved %+v, want score %v Known=true", res, want)
	}
	if res.Source != SourceModel || res.Confidence != 1 {
		t.Fatalf("known domain: source %q confidence %v, want %q and 1", res.Source, res.Confidence, SourceModel)
	}
}

// TestScoreObservedUnseen: an unseen domain with retained neighbors
// gets a verdict with a fold-in source and a calibrated confidence.
func TestScoreObservedUnseen(t *testing.T) {
	sc := tinyScorer(t, 5)
	res := sc.ScoreObserved("fresh.example", foldinRelations(sc))
	if res.Known {
		t.Fatal("unseen domain reported Known=true")
	}
	if res.Source != SourceFoldin && res.Source != SourceKNN {
		t.Fatalf("source %q, want %q or %q", res.Source, SourceFoldin, SourceKNN)
	}
	if res.Confidence < 0 || res.Confidence > 1 {
		t.Fatalf("confidence %v outside [0,1]", res.Confidence)
	}
	if res.Confidence == 0 {
		t.Fatal("full-coverage evidence produced zero confidence")
	}
	if res.Label != 0 && res.Label != 1 {
		t.Fatalf("label %d", res.Label)
	}
}

// TestScoreObservedNoEvidence: relations that name no retained
// neighbor (or none at all) fold nothing in.
func TestScoreObservedNoEvidence(t *testing.T) {
	sc := tinyScorer(t, 5)
	for _, rels := range [][]Relation{
		nil,
		{{View: bipartite.ViewQuery, Neighbor: "also-unknown.example", Weight: 1}},
	} {
		if res := sc.ScoreObserved("fresh.example", rels); res != (Result{}) {
			t.Fatalf("no-evidence relations %v produced %+v, want zero Result", rels, res)
		}
	}
}

// TestScoreObservedPartialCoverage: evidence in one of three views
// caps coverage (and so confidence) at 1/3.
func TestScoreObservedPartialCoverage(t *testing.T) {
	sc := tinyScorer(t, 5)
	doms := sc.Domains()
	res := sc.ScoreObserved("fresh.example", []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 1},
	})
	if res.Source == "" {
		t.Fatal("single-view evidence produced no verdict")
	}
	if res.Confidence > 1.0/3+1e-12 {
		t.Fatalf("one covered view of three: confidence %v > 1/3", res.Confidence)
	}
}

// TestScoreObservedDeterministic: the result is a pure function of the
// relation *set* — every permutation, from any number of concurrent
// goroutines, produces bit-identical Results.
func TestScoreObservedDeterministic(t *testing.T) {
	sc := tinyScorer(t, 5)
	base := foldinRelations(sc)
	want := sc.ScoreObserved("fresh.example", base)

	// Deterministic permutations: rotations and their reversals.
	perms := make([][]Relation, 0, 2*len(base))
	for r := 0; r < len(base); r++ {
		rot := append(append([]Relation(nil), base[r:]...), base[:r]...)
		rev := make([]Relation, len(rot))
		for i, rel := range rot {
			rev[len(rot)-1-i] = rel
		}
		perms = append(perms, rot, rev)
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(perms)*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range perms {
				if got := sc.ScoreObserved("fresh.example", p); got != want {
					errs <- "permutation produced a different Result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func foldinNow() time.Time {
	return time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
}

// TestFoldInCacheRoundTrip: observe → score equals ScoreObserved over
// the merged relations, and the warm second lookup returns the cached
// bits.
func TestFoldInCacheRoundTrip(t *testing.T) {
	sc := tinyScorer(t, 5)
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()
	rels := foldinRelations(sc)

	if _, ok := cache.Score(sc, "fresh.example", now); ok {
		t.Fatal("empty cache scored a domain")
	}
	cache.Observe("fresh.example", rels, now)
	got, ok := cache.Score(sc, "fresh.example", now)
	if !ok {
		t.Fatal("observed domain did not score")
	}
	want := sc.ScoreObserved("fresh.example", rels)
	if got != want {
		t.Fatalf("cache Score %+v != ScoreObserved %+v", got, want)
	}
	again, ok := cache.Score(sc, "fresh.example", now.Add(time.Minute))
	if !ok || again != want {
		t.Fatalf("warm lookup %+v (ok=%v), want cached %+v", again, ok, want)
	}
}

// TestFoldInCacheMerge: re-observing a (view, neighbor) pair replaces
// its weight, changing the folded verdict's inputs.
func TestFoldInCacheMerge(t *testing.T) {
	sc := tinyScorer(t, 5)
	doms := sc.Domains()
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()

	cache.Observe("fresh.example", []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 1},
	}, now)
	cache.Observe("fresh.example", []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 5},
		{View: bipartite.ViewIP, Neighbor: doms[1], Weight: 1},
	}, now)
	got, ok := cache.Score(sc, "fresh.example", now)
	if !ok {
		t.Fatal("merged entry did not score")
	}
	want := sc.ScoreObserved("fresh.example", []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 5},
		{View: bipartite.ViewIP, Neighbor: doms[1], Weight: 1},
	})
	if got != want {
		t.Fatalf("merged Score %+v != ScoreObserved over merged set %+v", got, want)
	}
}

// TestFoldInCacheTTL: entries expire TTL after their last observation
// and are reclaimed by the next Observe.
func TestFoldInCacheTTL(t *testing.T) {
	sc := tinyScorer(t, 5)
	cache := NewFoldInCache(FoldInConfig{TTL: time.Minute})
	now := foldinNow()
	cache.Observe("fresh.example", foldinRelations(sc), now)

	if _, ok := cache.Score(sc, "fresh.example", now.Add(59*time.Second)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	if _, ok := cache.Score(sc, "fresh.example", now.Add(2*time.Minute)); ok {
		t.Fatal("entry scored after its TTL")
	}
	if _, expired := cache.Observe("later.example", foldinRelations(sc), now.Add(2*time.Minute)); expired != 1 {
		t.Fatalf("Observe reclaimed %d expired entries, want 1", expired)
	}
	if cache.Len() != 1 {
		t.Fatalf("Len %d after reclaim, want 1", cache.Len())
	}
}

// TestFoldInCacheEviction: over capacity, the earliest-observed entry
// goes first; re-observation refreshes an entry's position.
func TestFoldInCacheEviction(t *testing.T) {
	sc := tinyScorer(t, 5)
	rels := foldinRelations(sc)
	cache := NewFoldInCache(FoldInConfig{MaxEntries: 2})
	now := foldinNow()

	cache.Observe("a.example", rels, now)
	cache.Observe("b.example", rels, now.Add(time.Second))
	// Refresh a, then add c: b is now the earliest and must be evicted.
	cache.Observe("a.example", rels, now.Add(2*time.Second))
	evicted, _ := cache.Observe("c.example", rels, now.Add(3*time.Second))
	if evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", evicted)
	}
	if _, ok := cache.Score(sc, "b.example", now.Add(3*time.Second)); ok {
		t.Fatal("earliest entry b.example survived eviction")
	}
	for _, d := range []string{"a.example", "c.example"} {
		if _, ok := cache.Score(sc, d, now.Add(3*time.Second)); !ok {
			t.Fatalf("%s was evicted out of order", d)
		}
	}
}

// TestFoldInCacheReloadInvalidation: a new scorer generation lazily
// recomputes cached results instead of serving the old model's bits.
func TestFoldInCacheReloadInvalidation(t *testing.T) {
	scA := tinyScorer(t, 5)
	scB := tinyScorer(t, 6)
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()
	relsA := foldinRelations(scA)

	cache.Observe("fresh.example", relsA, now)
	resA, okA := cache.Score(scA, "fresh.example", now)
	resB, okB := cache.Score(scB, "fresh.example", now)
	if !okA || !okB {
		t.Fatal("fold-in did not score under both generations")
	}
	if resA != scA.ScoreObserved("fresh.example", relsA) {
		t.Fatal("generation A result does not match its model")
	}
	if resB != scB.ScoreObserved("fresh.example", relsA) {
		t.Fatal("generation B served a stale cached result")
	}
}

// TestFoldInCacheWarmAllocs pins the acceptance criterion: a warm
// cache lookup is at most 2 allocations (it is zero).
func TestFoldInCacheWarmAllocs(t *testing.T) {
	sc := tinyScorer(t, 5)
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()
	cache.Observe("fresh.example", foldinRelations(sc), now)
	cache.Score(sc, "fresh.example", now) // warm the result cache

	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := cache.Score(sc, "fresh.example", now); !ok {
			t.Fatal("warm lookup missed")
		}
	})
	if allocs > 2 {
		t.Fatalf("warm fold-in lookup allocates %v times, budget 2", allocs)
	}
}

// TestScoreObservedZeroAlloc pins the cold path's budget beside the
// warm one's: a whole fold-in (sort, fold, classify, kNN sweep) runs
// out of the scorer's pooled scratch.
func TestScoreObservedZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sc := tinyScorer(t, 5)
	rels := foldinRelations(sc)
	sc.ScoreObserved("fresh.example", rels) // fill the scratch pool
	allocs := testing.AllocsPerRun(200, func() {
		if res := sc.ScoreObserved("fresh.example", rels); res.Source == "" {
			t.Fatal("no verdict")
		}
	})
	if allocs != 0 {
		t.Fatalf("cold fold-in allocates %v times a call, want 0", allocs)
	}
}

// hookedClassifier runs hook at every Decision: a seam inside
// ScoreObserved, which FoldInCache calls with its lock released.
type hookedClassifier struct {
	DomainClassifier
	hook func()
}

func (h hookedClassifier) Decision(x []float64) float64 {
	h.hook()
	return h.DomainClassifier.Decision(x)
}

// TestFoldInCacheStaleVerdict: an Observe that lands while a verdict
// is being computed over the entry's previous relations must not have
// that verdict memoized over it. The interleaving is exact: the second
// Observe runs from inside the first Score's classifier call.
func TestFoldInCacheStaleVerdict(t *testing.T) {
	sc := tinyScorer(t, 5)
	doms := sc.Domains()
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()
	before := []Relation{{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 1}}
	after := []Relation{
		{View: bipartite.ViewQuery, Neighbor: doms[0], Weight: 0.25},
		{View: bipartite.ViewIP, Neighbor: doms[3], Weight: 2},
		{View: bipartite.ViewTime, Neighbor: doms[5], Weight: 1},
	}
	stale, fresh := sc.ScoreObserved("fresh.example", before), sc.ScoreObserved("fresh.example", after)
	if stale == fresh {
		t.Fatal("fixture: both relation sets give one Result, the test could not tell them apart")
	}

	cache.Observe("fresh.example", before, now)
	clf, landed := sc.clf, false
	sc.clf = hookedClassifier{clf, func() {
		if !landed {
			landed = true
			cache.Observe("fresh.example", after, now)
		}
	}}
	got, ok := cache.Score(sc, "fresh.example", now)
	sc.clf = clf
	if !landed || !ok || got != stale {
		t.Fatalf("interrupted Score: landed=%v ok=%v %+v, want the verdict over the relations it copied %+v", landed, ok, got, stale)
	}
	if got, ok := cache.Score(sc, "fresh.example", now); !ok || got != fresh {
		t.Fatalf("Score after the interleaved Observe %+v (ok=%v), want the fresh verdict %+v", got, ok, fresh)
	}
	if n := cache.Recomputes(); n != 2 {
		t.Fatalf("Recomputes %d after two cold and no warm scores, want 2", n)
	}
	if got, _ := cache.Score(sc, "fresh.example", now); got != fresh || cache.Recomputes() != 2 {
		t.Fatalf("warm Score %+v with %d recomputes, want the memoized verdict and still 2", got, cache.Recomputes())
	}
}

// smallScorer is a scorer over the shared dnssim.SmallScenario model
// (some 500 retained domains at the default dimension, 150-200 support
// vectors), loaded once, and the detector it was saved from.
func smallScorer(t testing.TB) (*Scorer, *Detector) {
	t.Helper()
	d, _, ti := buildDetector(t, 21)
	smallScorerOnce.Do(func() {
		domains, labels := labeledSet(t, d, ti)
		clf, err := d.TrainClassifier(domains, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SaveModel(&smallScorerBytes, clf); err != nil {
			t.Fatal(err)
		}
		if smallScorerShared, err = LoadScorer(bytes.NewReader(smallScorerBytes.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if smallScorerShared == nil {
		t.Fatal("the shared scorer failed to build in an earlier test")
	}
	return smallScorerShared, d
}

var (
	smallScorerOnce   sync.Once
	smallScorerBytes  bytes.Buffer
	smallScorerShared *Scorer
)

// ownRelations returns, for every retained domain, the relations the
// streaming layer would have fed had the domain been unknown: per view
// its foldinTop strongest projection edges (Jaccard weights; ties to
// the lower neighbour), the domain itself never among them.
func ownRelations(t testing.TB, d *Detector, sc *Scorer) [][]Relation {
	t.Helper()
	const foldinTop = 8
	out := make([][]Relation, len(sc.Domains()))
	for _, v := range sc.views {
		p, err := d.Projection(v)
		if err != nil {
			t.Fatal(err)
		}
		byDomain := make([][]Relation, len(p.Domains))
		for _, e := range p.Edges {
			byDomain[e.U] = append(byDomain[e.U], Relation{View: v, Neighbor: p.Domains[e.V], Weight: e.W})
			byDomain[e.V] = append(byDomain[e.V], Relation{View: v, Neighbor: p.Domains[e.U], Weight: e.W})
		}
		for i, rels := range byDomain {
			sort.SliceStable(rels, func(a, b int) bool { return rels[a].Weight > rels[b].Weight })
			j, ok := sc.Index(p.Domains[i])
			if !ok {
				t.Fatalf("projected domain %s is not in the model", p.Domains[i])
			}
			out[j] = append(out[j], rels[:min(len(rels), foldinTop)]...)
		}
	}
	return out
}

// TestScoreObservedSameAcrossKernels rebuilds, with mathx's AVX kernel
// off, everything that runs through it on a trained model — the
// decision table (LoadScorer) and a fold-in Result per retained domain
// and per mixed relation set — and requires == with the kernel on.
// Without AVX both rounds take the Go loops, which are then the only
// path there is.
func TestScoreObservedSameAcrossKernels(t *testing.T) {
	sc, d := smallScorer(t)
	sets := ownRelations(t, d, sc)
	doms, rng := sc.Domains(), mathx.NewRNG(7)
	for i := 0; i < 500; i++ {
		rels := make([]Relation, 1+rng.Intn(12))
		for k := range rels {
			rels[k] = Relation{View: bipartite.Views[rng.Intn(3)], Neighbor: doms[rng.Intn(len(doms))], Weight: 3 * rng.Float64()}
		}
		sets = append(sets, rels)
	}
	run := func(kernel bool) (table []float64, results []Result) {
		defer mathx.UseRowKernel(mathx.UseRowKernel(kernel))
		loaded, err := LoadScorer(bytes.NewReader(smallScorerBytes.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, rels := range sets {
			results = append(results, loaded.foldIn(rels))
		}
		return loaded.scores, results
	}
	goTable, goResults := run(false)
	table, results := run(true)
	for i := range table {
		if table[i] != goTable[i] {
			t.Fatalf("decision table, %s: %v with the kernel, %v without", doms[i], table[i], goTable[i])
		}
	}
	verdicts := 0
	for i := range results {
		if results[i] != goResults[i] {
			t.Fatalf("relation set %d: %+v with the kernel, %+v without", i, results[i], goResults[i])
		}
		if results[i].Source != "" {
			verdicts++
		}
	}
	if verdicts < len(doms) {
		t.Fatalf("only %d of %d relation sets produced a verdict", verdicts, len(sets))
	}
}

// TestFoldInRetainedAgreement is the inductive sanity check of the
// fold-in: a retained domain, folded in from its own strongest
// relations as if the model had never seen it (the short-circuit
// bypassed), should land where the model put it. Pinned on
// dnssim.SmallScenario: how often the folded label is the decision
// table's, how often the folded score falls on the table score's side
// of the alert cut, and the median gap between the two scores. The
// second is there because the first can be vacuous: at the paper's
// C = 0.09 the zero threshold may put every retained domain on the
// benign side (the test logs how many it does not), while the rolling
// detector alerts by rank, on the top 5 % of the table. The bounds
// leave room around the values the build reads (label agreement 1.000
// with no retained domain labelled malicious, same side 0.944, median
// gap 0.047), so a change to the scenario or the sample budget need
// not re-pin them.
func TestFoldInRetainedAgreement(t *testing.T) {
	sc, d := smallScorer(t)
	ranked := append([]float64(nil), sc.scores...)
	sort.Float64s(ranked)
	cut := ranked[len(ranked)*95/100]
	var folded, positive, sameLabel, sameSide int
	var gaps []float64
	for j, rels := range ownRelations(t, d, sc) {
		res := sc.foldIn(rels)
		if res.Source == "" {
			continue // an isolated vertex: nothing to fold
		}
		folded++
		positive += int(sc.labels[j])
		if res.Label == int(sc.labels[j]) {
			sameLabel++
		}
		if (res.Score >= cut) == (sc.scores[j] >= cut) {
			sameSide++
		}
		gap := res.Score - sc.scores[j]
		if gap < 0 {
			gap = -gap
		}
		gaps = append(gaps, gap)
	}
	if folded < len(sc.domains)*9/10 {
		t.Fatalf("only %d of %d retained domains have relations to fold", folded, len(sc.domains))
	}
	sort.Float64s(gaps)
	labelRate, sideRate := float64(sameLabel)/float64(folded), float64(sameSide)/float64(folded)
	median := gaps[len(gaps)/2]
	t.Logf("%d domains folded (%d labelled malicious by the table): label agreement %.4f, same side of the alert cut %.3f: %.4f, |score gap| median %.4f p90 %.4f",
		folded, positive, labelRate, cut, sideRate, median, gaps[len(gaps)*9/10])
	if labelRate < 0.98 {
		t.Errorf("folded label agrees with the table's for %.4f of retained domains, want >= 0.98", labelRate)
	}
	if sideRate < 0.90 {
		t.Errorf("folded score on the table score's side of the alert cut for %.4f of retained domains, want >= 0.90", sideRate)
	}
	if median > 0.08 {
		t.Errorf("median |folded score - table score| %.4f, want <= 0.08", median)
	}
}

// BenchmarkFoldInScore measures the cold fold-in computation (fold +
// classify + kNN sweep) — the cost a cache miss pays — on the
// SmallScenario model, the size the ledger's core.foldin_ns_per_score
// probes.
func BenchmarkFoldInScore(b *testing.B) {
	sc, d := smallScorer(b)
	sets := ownRelations(b, d, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels := sets[i%len(sets)]
		if res := sc.ScoreObserved("fresh.example", rels); res.Source == "" && len(rels) > 0 {
			b.Fatal("no verdict")
		}
	}
}

// BenchmarkFoldInCacheScore measures the warm cache path (the ledger's
// core.foldin_cache_ns_per_score): repeated scores of an observed
// domain against one model generation.
func BenchmarkFoldInCacheScore(b *testing.B) {
	sc := tinyScorer(b, 5)
	cache := NewFoldInCache(FoldInConfig{})
	now := foldinNow()
	cache.Observe("fresh.example", foldinRelations(sc), now)
	cache.Score(sc, "fresh.example", now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Score(sc, "fresh.example", now); !ok {
			b.Fatal("warm lookup missed")
		}
	}
}

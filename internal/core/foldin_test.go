package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
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
// and are reclaimed by Sweep.
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
	if n := cache.Sweep(now.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("Sweep reclaimed %d entries, want 1", n)
	}
	if cache.Len() != 0 {
		t.Fatalf("Len %d after sweep", cache.Len())
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

// BenchmarkFoldInScore measures the cold fold-in computation (fold +
// classify + kNN sweep) — the cost a cache miss pays.
func BenchmarkFoldInScore(b *testing.B) {
	sc := tinyScorer(b, 5)
	rels := foldinRelations(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sc.ScoreObserved("fresh.example", rels); res.Source == "" {
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

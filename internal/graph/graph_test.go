package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestBuildAdjacency(t *testing.T) {
	g, err := Build(4, []Edge{
		{U: 0, V: 1, W: 1},
		{U: 2, V: 1, W: 2}, // unordered endpoints get canonicalized
		{U: 0, V: 3, W: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	ns, ws := g.Neighbors(1)
	if len(ns) != 2 {
		t.Fatalf("vertex 1 neighbors = %v", ns)
	}
	sum := ws[0] + ws[1]
	if math.Abs(sum-3) > 1e-12 {
		t.Errorf("vertex 1 incident weight = %v, want 3", sum)
	}
	if math.Abs(g.Degree[1]-3) > 1e-12 || math.Abs(g.Degree[0]-1.5) > 1e-12 {
		t.Errorf("degrees = %v", g.Degree)
	}
	if ns2, _ := g.Neighbors(2); len(ns2) != 1 || ns2[0] != 1 {
		t.Errorf("vertex 2 neighbors = %v", ns2)
	}
}

func TestBuildRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"out of range", 2, []Edge{{U: 0, V: 5, W: 1}}},
		{"self loop", 2, []Edge{{U: 1, V: 1, W: 1}}},
		{"zero weight", 2, []Edge{{U: 0, V: 1, W: 0}}},
		{"negative weight", 2, []Edge{{U: 0, V: 1, W: -1}}},
	}
	for _, c := range cases {
		if _, err := Build(c.n, c.edges); err == nil {
			t.Errorf("%s: Build accepted invalid input", c.name)
		}
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g, err := Build(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 0 {
		t.Fatal("empty graph has edges")
	}
	if ns, _ := g.Neighbors(0); len(ns) != 0 {
		t.Fatal("isolated vertex has neighbors")
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	tab, err := NewAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(5)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[tab.Sample(rng)]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := float64(draws) * w / total
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("outcome %d: count %d, expected ≈%.0f", i, counts[i], want)
		}
	}
}

func TestAliasTableSingleOutcome(t *testing.T) {
	tab, err := NewAliasTable([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(1)
	for i := 0; i < 100; i++ {
		if tab.Sample(rng) != 0 {
			t.Fatal("single-outcome table sampled nonzero")
		}
	}
}

func TestAliasTableErrors(t *testing.T) {
	if _, err := NewAliasTable(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAliasTable([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewAliasTable([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	// Non-finite weights used to pass both checks (NaN compares false to
	// everything; +Inf makes every scaled weight NaN) and build a table
	// that samples garbage. The error names the offending index.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewAliasTable([]float64{1, 2, bad, 3})
		if err == nil {
			t.Errorf("weight %v accepted", bad)
		} else if !strings.Contains(err.Error(), "at 2") {
			t.Errorf("weight %v: error %q does not name index 2", bad, err)
		}
	}
	if _, err := NewAliasTable([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Error("finite weights with an infinite sum accepted")
	}
}

// referenceSample is the spelling AliasTable.Sample replaced: a bounded
// draw through RNG.Intn (which divides for Lemire's threshold on every
// call), then the acceptance draw.
func referenceSample(t *AliasTable, rng *mathx.RNG) int {
	i := rng.Intn(len(t.cells))
	if rng.Float64() < t.cells[i].prob {
		return i
	}
	return int(t.cells[i].alias)
}

// TestAliasSampleMatchesReference requires the division-free Sample to
// return the reference's index sequence and leave the generator in the
// same state. Sizes 1 and 2 have threshold 0; 3, 7 and 1000 do not, and
// the second seed makes the generator's first output 0 (splitmix64 maps
// state 0 to 0), the one value certain to take the rejection branch.
func TestAliasSampleMatchesReference(t *testing.T) {
	const zeroFirst = -0x9e3779b97f4a7c15 & (1<<64 - 1)
	if mathx.NewRNG(zeroFirst).Uint64() != 0 {
		t.Fatal("seed no longer yields a zero first output; pick another rejection trigger")
	}
	for _, n := range []int{1, 2, 3, 7, 1000} {
		wrng := mathx.NewRNG(uint64(n))
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = wrng.Float64() + 0.01
		}
		tab, err := NewAliasTable(weights)
		if err != nil {
			t.Fatal(err)
		}
		if rejects := tab.threshold != 0; rejects != (n > 2) {
			t.Errorf("size %d: threshold %d", n, tab.threshold)
		}
		for _, seed := range []uint64{42, zeroFirst} {
			got, want := mathx.NewRNG(seed), mathx.NewRNG(seed)
			for i := 0; i < 20000; i++ {
				if g, w := tab.Sample(got), referenceSample(tab, want); g != w {
					t.Fatalf("size %d seed %#x draw %d: Sample %d, reference %d", n, seed, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Errorf("size %d seed %#x: generators diverged", n, seed)
			}
		}
	}
}

// Property: alias table sampling never returns an index with zero weight
// and always returns a valid index.
func TestAliasTableSupport(t *testing.T) {
	f := func(seed uint64, raw [6]uint8) bool {
		weights := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			weights[i] = float64(r % 8)
			if weights[i] > 0 {
				any = true
			}
		}
		if !any {
			return true // invalid input, skip
		}
		tab, err := NewAliasTable(weights)
		if err != nil {
			return false
		}
		rng := mathx.NewRNG(seed)
		for i := 0; i < 500; i++ {
			k := tab.Sample(rng)
			if k < 0 || k >= len(weights) || weights[k] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR adjacency is consistent with the edge arrays.
func TestAdjacencyConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 5 + rng.Intn(20)
		var edges []Edge
		seen := make(map[[2]int32]bool)
		for i := 0; i < 3*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, Edge{U: u, V: v, W: rng.Float64() + 0.01})
		}
		g, err := Build(n, edges)
		if err != nil {
			return false
		}
		// Total adjacency entries must be 2x edges; each edge must appear
		// from both endpoints with equal weight.
		count := 0
		for v := int32(0); int(v) < n; v++ {
			ns, ws := g.Neighbors(v)
			count += len(ns)
			for i, u := range ns {
				found := false
				back, bw := g.Neighbors(u)
				for j, x := range back {
					if x == v && bw[j] == ws[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return count == 2*g.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAliasSample reports ns per draw from a 100k-outcome table
// (an edge sampler's size: 1.6 MB of cells, so draws miss L1 and L2 the
// way they do in training).
func BenchmarkAliasSample(b *testing.B) {
	weights := make([]float64, 100_000)
	rng := mathx.NewRNG(3)
	for i := range weights {
		weights[i] = rng.Float64() + 0.001
	}
	tab, err := NewAliasTable(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Sample(rng)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
}

package mfembed

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// ringGraph builds a weighted ring of n vertices plus a few chords, a
// small connected similarity-graph stand-in.
func ringGraph(t *testing.T, n int) *graph.Weighted {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % n), W: 0.5 + 0.5*float64(i%3)/2})
	}
	for i := 0; i < n; i += 4 {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + n/2) % n), W: 0.25})
	}
	g, err := graph.Build(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTrainDeterministic: same graph, same seed, same config — the
// trainer must be bit-reproducible.
func TestTrainDeterministic(t *testing.T) {
	g := ringGraph(t, 16)
	cfg := Config{Dim: 8, Samples: 50_000, Seed: 7}
	a, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Vectors {
		for i := range a.Vectors[v] {
			if a.Vectors[v][i] != b.Vectors[v][i] {
				t.Fatalf("vertex %d dim %d: %v vs %v", v, i, a.Vectors[v][i], b.Vectors[v][i])
			}
		}
	}
	if a.Samples != 50_000 {
		t.Fatalf("Samples = %d, want 50000", a.Samples)
	}
}

// TestTrainSeedMatters: different seeds must explore different optima —
// a trivially constant trainer would pass determinism vacuously.
func TestTrainSeedMatters(t *testing.T) {
	g := ringGraph(t, 16)
	a, err := Train(g, Config{Dim: 8, Samples: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, Config{Dim: 8, Samples: 50_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Vectors {
		for i := range a.Vectors[v] {
			if a.Vectors[v][i] != b.Vectors[v][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical embeddings")
	}
}

// TestTrainNormalized: every vector (including isolated vertices') is
// unit length, like the LINE trainer's output.
func TestTrainNormalized(t *testing.T) {
	g, err := graph.Build(5, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 6, Samples: 40_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Vectors) != 5 || emb.Dim != 6 {
		t.Fatalf("got %d vectors of dim %d", len(emb.Vectors), emb.Dim)
	}
	for v, vec := range emb.Vectors {
		n := 0.0
		for _, x := range vec {
			n += x * x
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Fatalf("vertex %d has norm %v", v, math.Sqrt(n))
		}
	}
}

// TestTrainConnectedCloserThanDistant: the factorization must place a
// strongly connected pair closer than an unconnected one.
func TestTrainConnectedCloserThanDistant(t *testing.T) {
	// Two cliques joined by nothing: {0,1,2} dense, {3,4,5} dense.
	var edges []graph.Edge
	for _, p := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		edges = append(edges, graph.Edge{U: p[0], V: p[1], W: 1})
	}
	g, err := graph.Build(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Samples: 200_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	within := dot(emb.Vectors[0], emb.Vectors[1])
	across := dot(emb.Vectors[0], emb.Vectors[3])
	if within <= across {
		t.Fatalf("within-clique similarity %v not above cross-clique %v", within, across)
	}
}

// TestTrainWarmStart: Init rows seed training (and must not be
// mutated); nil rows cold-start.
func TestTrainWarmStart(t *testing.T) {
	g := ringGraph(t, 8)
	dim := 4
	init := make([][]float64, 8)
	init[0] = []float64{0.25, -0.25, 0.25, -0.25}
	orig := append([]float64(nil), init[0]...)
	cold, err := Train(g, Config{Dim: dim, Samples: 40_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Train(g, Config{Dim: dim, Samples: 40_000, Seed: 5, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if init[0][i] != orig[i] {
			t.Fatal("Train mutated the warm-start row")
		}
	}
	same := true
	for i := range cold.Vectors[0] {
		if cold.Vectors[0][i] != warm.Vectors[0][i] {
			same = false
		}
	}
	if same {
		t.Fatal("warm start had no effect on the seeded vertex")
	}
}

// TestTrainValidation: malformed Init shapes error out instead of
// silently training on garbage.
func TestTrainValidation(t *testing.T) {
	g := ringGraph(t, 4)
	if _, err := Train(g, Config{Dim: 4, Init: make([][]float64, 3)}); err == nil {
		t.Fatal("wrong Init row count accepted")
	}
	bad := make([][]float64, 4)
	bad[2] = []float64{1, 2}
	if _, err := Train(g, Config{Dim: 4, Init: bad}); err == nil {
		t.Fatal("wrong Init row dim accepted")
	}
}

// TestTrainEmptyAndEdgeless: degenerate graphs are handled without
// SGD.
func TestTrainEmptyAndEdgeless(t *testing.T) {
	empty, err := graph.Build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(empty, Config{Dim: 4})
	if err != nil || len(emb.Vectors) != 0 {
		t.Fatalf("empty graph: emb=%v err=%v", emb, err)
	}
	lone, err := graph.Build(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err = Train(lone, Config{Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Samples != 0 {
		t.Fatalf("edgeless graph reported %d samples", emb.Samples)
	}
	for v, vec := range emb.Vectors {
		n := 0.0
		for _, x := range vec {
			n += x * x
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Fatalf("isolated vertex %d has norm %v", v, math.Sqrt(n))
		}
	}
}

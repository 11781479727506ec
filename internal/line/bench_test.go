package line

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// benchGraph builds a reproducible sparse random graph with n vertices
// and n*avgDeg/2 distinct edges — the shape of a projection graph at
// test scale, without the cost of generating traffic first.
func benchGraph(n, avgDeg int, seed uint64) *graph.Weighted {
	rng := mathx.NewRNG(seed)
	m := n * avgDeg / 2
	seen := make(map[[2]int32]bool, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
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
		edges = append(edges, graph.Edge{U: u, V: v, W: rng.Float64() + 0.1})
	}
	g, err := graph.Build(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkLINETrainOrder measures raw SGD throughput for each
// objective, reporting samples/sec — the package-level view of the
// ledger's line.samples_per_s. The Dim 16 case is the streaming
// detector's shape: both objectives at half-dim 8, two vectors a row.
func BenchmarkLINETrainOrder(b *testing.B) {
	g := benchGraph(1000, 16, 99)
	const samples = 500_000
	cases := []struct {
		name  string
		order Order
		dim   int
	}{
		{"first", OrderFirst, 32},
		{"second", OrderSecond, 32},
		{"both/dim=16", OrderBoth, 16},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			performed := 0
			for i := 0; i < b.N; i++ {
				emb, err := Train(g, Config{
					Dim:     tc.dim,
					Order:   tc.order,
					Samples: samples,
					Seed:    42,
				})
				if err != nil {
					b.Fatal(err)
				}
				performed += emb.Samples
			}
			b.ReportMetric(float64(performed)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// Package mfembed learns domain embeddings by weighted matrix
// factorization of the similarity projection graph, the MF-DNS-E
// construction (see PAPERS.md): the Jaccard similarity matrix S is
// approximated by a low-rank symmetric factorization S ≈ UUᵀ, so two
// domains embed closely exactly when the projection says they behave
// similarly. It is the drop-in alternative to LINE behind core's
// Embedder registry — same graph input, same warm-start contract, same
// determinism guarantee — at a fraction of LINE's sample budget,
// because each SGD step fits an explicit similarity value instead of a
// sampled proximity objective.
//
// Training is plain SGD over edge samples: an edge (u, v, w) is drawn
// with probability proportional to w (alias sampling, like LINE's edge
// sampler), the residual w − Uᵤ·Uᵥ drives a gradient step on both
// endpoint rows with L2 regularization, and a few uniformly sampled
// negative pairs per positive push unconnected rows toward
// orthogonality. The trainer is sequential, like LINE's, so every run
// is bit-reproducible in the seed.
//
//maldlint:deterministic
package mfembed

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// Config parameterizes training.
type Config struct {
	// Dim is the embedding dimension per vertex (default 32).
	Dim int
	// Samples is the total number of SGD edge samples. Default
	// 40 × edge count, clamped to [40k, 4M]: factorizing explicit
	// similarity values converges far faster than LINE's sampled
	// objective, so the budget is deliberately an order of magnitude
	// smaller.
	Samples int
	// Negatives is the number of uniformly sampled negative pairs per
	// positive edge (default 2).
	Negatives int
	// InitialLR is the starting learning rate, decayed linearly to its
	// floor over training (default 0.05).
	InitialLR float64
	// Lambda is the L2 regularization strength applied to the rows
	// touched by each step (default 0.01).
	Lambda float64
	// Seed drives initialization and sampling.
	Seed uint64
	// Init optionally warm-starts training: when non-nil it must have
	// one entry per vertex, and every non-nil row (length Dim) replaces
	// that vertex's random initialization. Rows are copied, never
	// mutated. Like LINE, a warm start shrinks the automatic sample
	// budget by warmSampleScale.
	Init [][]float64
}

func (c Config) withDefaults(edgeCount int) Config {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Samples <= 0 {
		c.Samples = 40 * edgeCount
		lo, hi := 40_000, 4_000_000
		if c.Init != nil {
			c.Samples = int(float64(c.Samples) * warmSampleScale)
			lo = int(float64(lo) * warmSampleScale)
			hi = int(float64(hi) * warmSampleScale)
		}
		if c.Samples < lo {
			c.Samples = lo
		}
		if c.Samples > hi {
			c.Samples = hi
		}
	}
	if c.Negatives <= 0 {
		c.Negatives = 2
	}
	if c.InitialLR <= 0 {
		c.InitialLR = 0.05
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.01
	}
	return c
}

// Tuning constants shared with the LINE trainer's conventions.
const (
	// warmSampleScale shrinks the automatic sample budget when
	// Config.Init warm-starts training.
	warmSampleScale = 0.4
	// lrInterval is how many samples pass between learning-rate
	// refreshes; the schedule is linear so the drift within one
	// interval is negligible.
	lrInterval = 1024
)

// Embedding holds the learned vertex representations: Vectors[v] is
// the L2-normalized embedding of vertex v.
type Embedding struct {
	Dim     int
	Vectors [][]float64
	// Samples is the number of SGD edge samples Train performed (0 for
	// edgeless graphs). Reported in build telemetry.
	Samples int
}

// Train factorizes g's weighted adjacency into Dim-dimensional vertex
// rows. Isolated vertices keep their small random initialization,
// normalized, exactly like the LINE trainer treats them.
func Train(g *graph.Weighted, cfg Config) (*Embedding, error) {
	cfg = cfg.withDefaults(g.EdgeCount())
	if g.N == 0 {
		return &Embedding{Dim: cfg.Dim}, nil
	}
	if cfg.Init != nil {
		if len(cfg.Init) != g.N {
			return nil, fmt.Errorf("mfembed: Init has %d rows for %d vertices", len(cfg.Init), g.N)
		}
		for v, row := range cfg.Init {
			if row != nil && len(row) != cfg.Dim {
				return nil, fmt.Errorf("mfembed: Init row %d has dim %d, want %d", v, len(row), cfg.Dim)
			}
		}
	}

	rng := mathx.NewRNG(cfg.Seed)
	U := make([][]float64, g.N)
	for v := range U {
		row := make([]float64, cfg.Dim)
		for i := range row {
			row[i] = (rng.Float64() - 0.5) / float64(cfg.Dim)
		}
		U[v] = row
	}
	for v, row := range cfg.Init {
		if row != nil {
			copy(U[v], row)
		}
	}

	samples := 0
	if g.EdgeCount() > 0 {
		edgeSampler, err := graph.NewAliasTable(g.EdgesW)
		if err != nil {
			return nil, fmt.Errorf("mfembed: building edge sampler: %w", err)
		}
		sgd(g, U, cfg, rng, edgeSampler)
		samples = cfg.Samples
	}

	emb := &Embedding{Dim: cfg.Dim, Vectors: make([][]float64, g.N), Samples: samples}
	for v := range U {
		mathx.Normalize(U[v])
		emb.Vectors[v] = U[v]
	}
	return emb, nil
}

// sgd runs the sequential factorization loop over cfg.Samples edge
// draws.
func sgd(g *graph.Weighted, U [][]float64, cfg Config, rng *mathx.RNG, edges *graph.AliasTable) {
	scratch := make([]float64, cfg.Dim)
	lr := cfg.InitialLR
	floorLR := cfg.InitialLR * 0.0001
	total := float64(cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		if s%lrInterval == 0 {
			lr = cfg.InitialLR * (1 - float64(s)/total)
			if lr < floorLR {
				lr = floorLR
			}
		}
		ei := edges.Sample(rng)
		u, v := g.EdgesU[ei], g.EdgesV[ei]
		// Positive pair: pull the dot product toward the edge weight.
		// scratch keeps Uᵤ's pre-step value so both halves of the
		// symmetric update use the operands the residual was computed
		// from.
		copy(scratch, U[u])
		res := g.EdgesW[ei] - mathx.Dot(U[u], U[v])
		step(U[u], U[v], res, lr, cfg.Lambda)
		step(U[v], scratch, res, lr, cfg.Lambda)
		// Negative pairs: push uniformly sampled non-neighbors toward a
		// zero dot product. Collisions with the endpoints are simply
		// skipped; at projection-graph sizes they are rare.
		for k := 0; k < cfg.Negatives; k++ {
			n := int32(rng.Intn(g.N))
			if n == u || n == v {
				continue
			}
			copy(scratch, U[u])
			step(U[u], U[n], -mathx.Dot(U[u], U[n]), lr, cfg.Lambda)
			step(U[n], scratch, -mathx.Dot(scratch, U[n]), lr, cfg.Lambda)
		}
	}
}

// step applies one regularized gradient step to row toward residual
// res against other: row += lr·(res·other − λ·row).
func step(row, other []float64, res, lr, lambda float64) {
	for i := range row {
		row[i] += lr * (res*other[i] - lambda*row[i])
	}
}

// Package line implements the LINE graph-embedding algorithm (Tang et
// al., WWW 2015) the paper uses to learn latent feature representations
// of domains from the similarity projection graphs (§5).
//
// LINE learns low-dimensional vertex vectors that preserve first-order
// proximity (directly connected vertices embed closely, weighted by edge
// weight) and second-order proximity (vertices with similar neighborhoods
// embed closely). Training follows the reference implementation:
// stochastic gradient descent where each step samples one edge with
// probability proportional to its weight (alias sampling), treats it as a
// positive example, and draws K negative vertices from the noise
// distribution P(v) ∝ deg(v)^0.75 (§5.2, Eqs. 4-6).
//
// The trainer is sequential: one goroutine, one generator, one pass
// over the sample budget, so an embedding is a pure function of (graph,
// Config) on every host and at every core count.
//
// The unit of work is the sample. The loop draws an edge, a direction
// and the sample's targets — the positive vertex, then the negatives —
// and hands them to matrix.sample in one call: copy the source row, zero
// its gradient, for each target score the source against the target row
// and update the row and the gradient in a single pass (matrix.step),
// add the gradient to the source row. Drawing every target before any
// row moves changes nothing: the arithmetic consumes no randomness, so
// the generator sees the same calls in the same order as when draws and
// steps alternated. sample has one contract (stated on matrix.go's
// sample) and two implementations that agree bit for bit: a pure-Go
// loop over step, and on amd64 CPUs with AVX one assembly kernel
// (kernel_amd64.s) that does the whole sample — the dot product's four
// accumulators as the four lanes of a vector register,
// mathx.FastSigmoid's table lookup inline — without returning to Go.
// Which one runs is decided once at start-up from CPUID; there is
// nothing to configure, and a model does not record which one trained
// it because it cannot tell.
//
// The loop around it avoids per-sample transcendental and bookkeeping
// costs: the logistic function is a 1024-interval lookup table
// (mathx.FastSigmoid, bounded at ±6 like the reference implementation),
// the learning rate is recomputed only every lrInterval samples, alias
// sampling is division- and branch-free (graph.AliasTable), and negative
// sampling retries collisions in place instead of dropping the sample.
//
//maldlint:deterministic
package line

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// Order selects which proximity objective(s) to train.
type Order int

// Proximity orders.
const (
	// OrderFirst trains only the first-order objective.
	OrderFirst Order = 1
	// OrderSecond trains only the second-order objective.
	OrderSecond Order = 2
	// OrderBoth trains both and concatenates the two embeddings, as the
	// LINE paper recommends; each half has Dim/2 dimensions.
	OrderBoth Order = 3
)

// Config parameterizes training.
type Config struct {
	// Dim is the output embedding dimension (per vertex). For OrderBoth
	// it must be even; each objective contributes Dim/2 dimensions.
	Dim int
	// Order selects the proximity objective (default OrderBoth).
	Order Order
	// Samples is the number of SGD edge samples. Default 200 × edge
	// count, clamped to [200k, 30M] so month-scale projection graphs
	// stay tractable.
	Samples int
	// Negatives is the number of negative samples per positive edge
	// (default 5).
	Negatives int
	// InitialLR is the starting learning rate, decayed linearly over
	// training and floored at 0.01% of itself (default 0.025).
	InitialLR float64
	// Seed drives initialization and sampling.
	Seed uint64
	// Init optionally warm-starts training: when non-nil it must have one
	// entry per vertex, and every non-nil row (length Dim) replaces that
	// vertex's random initialization. For OrderBoth the first Dim/2
	// components seed the first-order matrix and the rest the
	// second-order vertex matrix (the second-order context matrix always
	// starts at zero, as in a cold start). Rows are copied, never
	// mutated. A warm start from previously converged vectors needs far
	// fewer SGD samples, so when Samples is 0 the automatic sample count
	// is scaled down by warmSampleScale.
	Init [][]float64
}

func (c Config) withDefaults(edgeCount int) (Config, error) {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Order == 0 {
		c.Order = OrderBoth
	}
	if c.Order == OrderBoth && c.Dim%2 != 0 {
		return c, fmt.Errorf("line: Dim must be even for OrderBoth, got %d", c.Dim)
	}
	if c.Samples <= 0 {
		c.Samples = 200 * edgeCount
		lo, hi := 200_000, 30_000_000
		if c.Init != nil {
			// Warm start: most vertices begin near their converged
			// position, so the budget only has to move the new vertices
			// and track the drift of the old ones.
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
		c.Negatives = 5
	}
	if c.InitialLR <= 0 {
		c.InitialLR = 0.025
	}
	return c, nil
}

// Embedding holds the learned vertex representations: Vectors[v] is the
// L2-normalized embedding of vertex v.
type Embedding struct {
	Dim     int
	Vectors [][]float64
	// Samples is the total number of SGD edge samples Train performed
	// (summed over both objectives for OrderBoth; 0 for edgeless
	// graphs). Reported in build telemetry; not persisted by Save.
	Samples int
}

// Train learns embeddings for all vertices of g. Isolated vertices keep
// their (small, random) initialization, normalized; they carry no
// structural information and embed near-orthogonally to everything.
func Train(g *graph.Weighted, cfg Config) (*Embedding, error) {
	cfg, err := cfg.withDefaults(g.EdgeCount())
	if err != nil {
		return nil, err
	}
	if g.N == 0 {
		return &Embedding{Dim: cfg.Dim}, nil
	}
	if cfg.Init != nil {
		if len(cfg.Init) != g.N {
			return nil, fmt.Errorf("line: Init has %d rows for %d vertices", len(cfg.Init), g.N)
		}
		for v, row := range cfg.Init {
			if row != nil && len(row) != cfg.Dim {
				return nil, fmt.Errorf("line: Init row %d has dim %d, want %d", v, len(row), cfg.Dim)
			}
			// One NaN or Inf would spread through the gradient into
			// every row it meets, and into the model, without a sound.
			for i, x := range row {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("line: Init row %d has non-finite component %d", v, i)
				}
			}
		}
	}

	orders := 1
	var parts [][][]float64
	switch cfg.Order {
	case OrderFirst:
		part, err := trainOrder(g, cfg, false, 0)
		if err != nil {
			return nil, err
		}
		parts = [][][]float64{part}
	case OrderSecond:
		part, err := trainOrder(g, cfg, true, 0)
		if err != nil {
			return nil, err
		}
		parts = [][][]float64{part}
	case OrderBoth:
		orders = 2
		half := cfg
		half.Dim = cfg.Dim / 2
		p1, err := trainOrder(g, half, false, 0)
		if err != nil {
			return nil, err
		}
		half.Seed = cfg.Seed ^ 0x5bd1e995
		p2, err := trainOrder(g, half, true, half.Dim)
		if err != nil {
			return nil, err
		}
		parts = [][][]float64{p1, p2}
	default:
		return nil, fmt.Errorf("line: unknown order %d", cfg.Order)
	}

	emb := &Embedding{Dim: cfg.Dim, Vectors: make([][]float64, g.N)}
	if g.EdgeCount() > 0 {
		emb.Samples = orders * cfg.Samples
	}
	for v := 0; v < g.N; v++ {
		var vec []float64
		for _, p := range parts {
			mathx.Normalize(p[v])
			vec = append(vec, p[v]...)
		}
		emb.Vectors[v] = vec
	}
	return emb, nil
}

// trainOrder runs SGD for one objective. When secondOrder is true, a
// separate context matrix is used and positives/negatives score against
// contexts; otherwise vertices score against each other directly.
// initOff is the offset into Config.Init rows where this objective's
// Dim-sized slice of the warm-start vector begins (nonzero only for the
// second half of OrderBoth).
func trainOrder(g *graph.Weighted, cfg Config, secondOrder bool, initOff int) ([][]float64, error) {
	if g.EdgeCount() == 0 {
		// No structure to train on; return the random init (overridden by
		// warm-start rows) so callers still get valid vectors.
		rng := mathx.NewRNG(cfg.Seed)
		out := randomInit(g.N, cfg.Dim, rng)
		for v, row := range cfg.Init {
			if row != nil {
				copy(out[v], row[initOff:initOff+cfg.Dim])
			}
		}
		return out, nil
	}

	edgeSampler, err := graph.NewAliasTable(g.EdgesW)
	if err != nil {
		return nil, fmt.Errorf("line: building edge sampler: %w", err)
	}
	noise := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		noise[v] = math.Pow(g.Degree[v], 0.75)
	}
	noiseSampler, err := graph.NewAliasTable(noise)
	if err != nil {
		return nil, fmt.Errorf("line: building noise sampler: %w", err)
	}

	root := mathx.NewRNG(cfg.Seed)
	emb := newMatrix(g.N, cfg.Dim)
	emb.randomize(root)
	for v, row := range cfg.Init {
		if row != nil {
			emb.set(int32(v), row[initOff:initOff+cfg.Dim])
		}
	}
	tgt := emb
	if secondOrder {
		tgt = newMatrix(g.N, cfg.Dim) // context matrix starts at zero
	}

	// Sampling draws from root's first split, taken after the
	// initialization consumed root: the stream every pinned embedding
	// and model hash was recorded on.
	rng := root.Split()
	src := make([]float64, cfg.Dim)
	grad := make([]float64, cfg.Dim)
	targets := make([]int32, 0, 1+cfg.Negatives)
	total := float64(cfg.Samples)
	lr := cfg.InitialLR
	floorLR := cfg.InitialLR * 0.0001
	for s := 0; s < cfg.Samples; s++ {
		// Hoisted LR schedule: linear decay, recomputed every
		// lrInterval samples instead of per sample. The LR changes by
		// at most InitialLR·lrInterval/total ≈ 1e-5 of its range
		// between refreshes.
		if s%lrInterval == 0 {
			lr = cfg.InitialLR * (1 - float64(s)/total)
			if lr < floorLR {
				lr = floorLR
			}
		}

		ei := edgeSampler.Sample(rng)
		u, v := g.EdgesU[ei], g.EdgesV[ei]
		// Skip self-loops: a vertex is not its own neighbour, and
		// first order would push a row along its own copy.
		// Projection graphs never contain them (edges always have
		// U < V), so this is purely defensive.
		if u == v {
			continue
		}
		// Undirected edge: train in a random direction each step.
		if rng.Float64() < 0.5 {
			u, v = v, u
		}
		// The sample's targets: the positive example, then the
		// negatives. A collision with the positive pair is redrawn
		// in place (bounded rejection loop) so every sample trains
		// on the configured number of negatives instead of
		// silently dropping some on dense toy graphs.
		targets = append(targets[:0], v)
		for k := 0; k < cfg.Negatives; k++ {
			nv := int32(noiseSampler.Sample(rng))
			for tries := 0; (nv == v || nv == u) && tries < negRetries; tries++ {
				nv = int32(noiseSampler.Sample(rng))
			}
			if nv == v || nv == u {
				continue
			}
			targets = append(targets, nv)
		}
		emb.sample(tgt, u, targets, src, grad, lr)
	}
	return emb.rows(), nil
}

// coeff returns the SGD step coefficient (label − σ(x))·lr for an
// example scored x. The negative case is spelled −σ(x)·lr, not
// (0 − σ(x))·lr: the two differ in the sign of zero when σ(x) is 0.
func coeff(label, x, lr float64) float64 {
	if label == 0 {
		return -mathx.FastSigmoid(x) * lr
	}
	return (label - mathx.FastSigmoid(x)) * lr
}

// Inner-loop tuning constants.
const (
	// lrInterval is how many samples run between learning rate
	// refreshes; the schedule is linear, so the LR drifts by a
	// negligible amount within one interval.
	lrInterval = 1024
	// negRetries bounds the negative-sample rejection loop so degenerate
	// graphs (where the noise distribution nearly always returns the
	// positive pair) cannot stall training.
	negRetries = 3
	// warmSampleScale shrinks the automatic sample budget (and its
	// clamps) when Config.Init warm-starts training: seeded vertices
	// start near their converged positions, so a fraction of the cold
	// budget suffices to absorb new vertices and drift.
	warmSampleScale = 0.4
)

// randomInit mirrors matrix.randomize for the no-edge early path.
func randomInit(n, dim int, rng *mathx.RNG) [][]float64 {
	out := make([][]float64, n)
	for v := range out {
		vec := make([]float64, dim)
		for i := range vec {
			vec[i] = (rng.Float64() - 0.5) / float64(dim)
		}
		out[v] = vec
	}
	return out
}

// Save writes the embedding to w (gob encoding), so the expensive SGD
// training runs once and deployments load the vectors.
func (e *Embedding) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(embeddingWire{Dim: e.Dim, Vectors: e.Vectors}); err != nil {
		return fmt.Errorf("line: encoding embedding: %w", err)
	}
	return nil
}

// LoadEmbedding reads an embedding written by Save.
func LoadEmbedding(r io.Reader) (*Embedding, error) {
	var wire embeddingWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("line: decoding embedding: %w", err)
	}
	for i, v := range wire.Vectors {
		if len(v) != wire.Dim {
			return nil, fmt.Errorf("line: corrupt embedding: vector %d has dim %d, want %d",
				i, len(v), wire.Dim)
		}
	}
	return &Embedding{Dim: wire.Dim, Vectors: wire.Vectors}, nil
}

// embeddingWire is the serialized form of Embedding.
type embeddingWire struct {
	Dim     int
	Vectors [][]float64
}

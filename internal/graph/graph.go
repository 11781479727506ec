// Package graph provides the weighted undirected graph representation
// and O(1) weighted sampling machinery (Walker alias tables) used by the
// LINE embedding stage: edge sampling proportional to Jaccard weights and
// negative-sampling noise distributions over vertex degree (§5.2).
package graph

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/mathx"
)

// Weighted is an undirected weighted graph over vertices [0, N). It is
// immutable after Build and safe for concurrent reads.
type Weighted struct {
	N int
	// EdgesU/EdgesV/EdgesW are parallel edge arrays with U < V.
	EdgesU []int32
	EdgesV []int32
	EdgesW []float64
	// Degree[v] is the weighted degree (sum of incident edge weights).
	Degree []float64
	// adj is the CSR adjacency: neighbors of v are adjTo[adjOff[v]:adjOff[v+1]].
	adjOff []int32
	adjTo  []int32
	adjW   []float64
}

// Edge is one weighted undirected edge.
type Edge struct {
	U, V int32
	W    float64
}

// Build constructs a Weighted graph over n vertices from an edge list.
// Edge endpoints must lie in [0, n) and weights must be positive.
func Build(n int, edges []Edge) (*Weighted, error) {
	g := &Weighted{
		N:      n,
		EdgesU: make([]int32, 0, len(edges)),
		EdgesV: make([]int32, 0, len(edges)),
		EdgesW: make([]float64, 0, len(edges)),
		Degree: make([]float64, n),
	}
	deg := make([]int32, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("graph: non-positive weight %v on edge (%d,%d)", e.W, e.U, e.V)
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		g.EdgesU = append(g.EdgesU, u)
		g.EdgesV = append(g.EdgesV, v)
		g.EdgesW = append(g.EdgesW, e.W)
		g.Degree[u] += e.W
		g.Degree[v] += e.W
		deg[u+1]++
		deg[v+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g.adjOff = deg
	g.adjTo = make([]int32, 2*len(g.EdgesU))
	g.adjW = make([]float64, 2*len(g.EdgesU))
	cursor := make([]int32, n)
	for i := range g.EdgesU {
		u, v, w := g.EdgesU[i], g.EdgesV[i], g.EdgesW[i]
		pu := g.adjOff[u] + cursor[u]
		g.adjTo[pu], g.adjW[pu] = v, w
		cursor[u]++
		pv := g.adjOff[v] + cursor[v]
		g.adjTo[pv], g.adjW[pv] = u, w
		cursor[v]++
	}
	return g, nil
}

// EdgeCount returns the number of undirected edges.
func (g *Weighted) EdgeCount() int { return len(g.EdgesU) }

// Neighbors returns the neighbor ids and weights of v as read-only
// slices backed by the graph's storage.
func (g *Weighted) Neighbors(v int32) ([]int32, []float64) {
	lo, hi := g.adjOff[v], g.adjOff[v+1]
	return g.adjTo[lo:hi], g.adjW[lo:hi]
}

// AliasTable supports O(1) sampling from a fixed discrete distribution
// (Walker's alias method). Construct once; Sample is safe for concurrent
// use with per-goroutine RNGs.
type AliasTable struct {
	// cells interleaves each outcome's acceptance probability with its
	// alias, so one draw touches one 16-byte cell (one cache line)
	// instead of one line in each of two parallel arrays.
	cells []aliasCell
	// bound and threshold are Lemire's multiply-shift rejection constants
	// for a uniform index in [0, len(cells)): bound = len(cells) and
	// threshold = (-bound) % bound, the 64-bit division mathx.RNG.Intn
	// pays on every call, paid here once.
	bound, threshold uint64
}

type aliasCell struct {
	prob  float64
	alias int32
}

// NewAliasTable builds a sampler over weights (finite, non-negative, at
// least one positive).
func NewAliasTable(weights []float64) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("graph: empty weight vector")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("graph: negative weight %v at %d", w, i)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: non-finite weight %v at %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("graph: all weights zero")
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("graph: weights sum to %v", total)
	}
	bound := uint64(n)
	t := &AliasTable{cells: make([]aliasCell, n), bound: bound, threshold: -bound % bound}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.cells[s] = aliasCell{prob: scaled[s], alias: l}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.cells[i] = aliasCell{prob: 1, alias: i}
	}
	for _, i := range small {
		t.cells[i] = aliasCell{prob: 1, alias: i}
	}
	return t, nil
}

// Sample draws one index distributed according to the table's weights.
// It consumes rng exactly as rng.Intn(t.Len()) followed by rng.Float64()
// would, draw for draw, so sequences are unchanged from that spelling.
//
//alloccheck:hot
func (t *AliasTable) Sample(rng *mathx.RNG) int {
	hi, lo := bits.Mul64(rng.Uint64(), t.bound)
	for lo < t.threshold {
		hi, lo = bits.Mul64(rng.Uint64(), t.bound)
	}
	// Acceptance is a coin flip no branch predictor learns; written as an
	// overwrite of a value already in hand it compiles to a conditional
	// move, not a branch.
	c := t.cells[hi]
	i := int(c.alias)
	if rng.Float64() < c.prob {
		i = int(hi)
	}
	return i
}

// Len returns the number of outcomes.
func (t *AliasTable) Len() int { return len(t.cells) }

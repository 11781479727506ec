package line

import "repro/internal/mathx"

// matrix is the embedding store: one flat []float64, n rows of dim.
// The AVX and pure-Go forms of sample perform identical arithmetic in
// the same order, so training is bit-deterministic in the seed across
// amd64 machines with and without AVX. (Other architectures are
// deterministic too, but the compiler may fuse multiply-adds there, so
// their bits are their own.)
type matrix struct {
	n, dim int
	data   []float64
}

func newMatrix(n, dim int) *matrix {
	return &matrix{n: n, dim: dim, data: make([]float64, n*dim)}
}

// randomize fills the matrix with the standard LINE initialization,
// uniform in (-0.5/dim, 0.5/dim).
func (m *matrix) randomize(rng *mathx.RNG) {
	for i := range m.data {
		m.data[i] = (rng.Float64() - 0.5) / float64(m.dim)
	}
}

// load copies row v into buf (length dim): the source vertex of one SGD
// sample, read once and held while the sample's target rows move.
func (m *matrix) load(v int32, buf []float64) {
	copy(buf, m.data[int(v)*m.dim:])
}

// sample is one SGD sample: the source vertex u of m against the rows
// of tgt named by targets, the first a positive example (label 1), the
// rest negatives (label 0). In order: load(u, src); clear(grad);
// tgt.step(t, src, grad, label, lr) for each target; add(u, grad). A
// row named twice sees its own earlier update the second time. tgt may
// be m itself (first order); src and grad are the caller's scratch,
// length dim, and hold u's pre-sample row and its gradient afterwards.
// The caller draws every target before the call, which reorders no
// draw: nothing in a sample consumes randomness.
//
// Two implementations keep this contract and agree bit for bit: the
// loop below and, on amd64 with AVX, the whole sample, sigmoid
// included, in one assembly call (kernel_amd64.s).
//
//alloccheck:hot
func (m *matrix) sample(tgt *matrix, u int32, targets []int32, src, grad []float64, lr float64) {
	if useAVX {
		// The kernel checks no bounds, so the slicing here does: row u,
		// every target row and both buffers, as the loop below would.
		dim := m.dim
		urow := m.data[int(u)*dim:][:dim]
		src, grad = src[:dim], grad[:dim]
		for _, t := range targets {
			_ = tgt.data[int(t)*dim:][:dim]
		}
		sampleAVX(&urow[0], &tgt.data[0], dim, targets, &src[0], &grad[0], lr, mathx.SigmoidTable())
		return
	}
	m.load(u, src)
	clear(grad)
	label := 1.0
	for _, t := range targets {
		tgt.step(t, src, grad, label, lr)
		label = 0
	}
	m.add(u, grad)
}

// step is one SGD update of target row t against src: it scores
// x = src·row, takes g = (label − σ(x))·lr (coeff), then in a single
// pass does grad[i] += g·row[i]; row[i] += g·src[i], reading row[i]
// before it is written. src and grad have length dim and alias neither
// each other nor row t.
//
// The arithmetic contract, which the AVX kernel keeps too: the dot
// product of the leading len&^3 elements runs in four accumulators,
// element i into accumulator i%4, each product rounded before it is
// added (the compiler does not fuse on amd64, and the kernel must not
// use FMA), summed as ((s0+s1)+s2)+s3; the trailing len%4 products are
// then added in index order. When a result is NaN every path returns
// NaN, but the payload is whichever operand's the hardware picks.
//
//alloccheck:hot
func (m *matrix) step(t int32, src, grad []float64, label, lr float64) {
	base := int(t) * m.dim
	row := m.data[base : base+m.dim : base+m.dim]
	src, grad = src[:len(row)], grad[:len(row)]
	n4 := len(row) &^ 3
	var s0, s1, s2, s3 float64
	for i := 0; i < n4; i += 4 {
		s0 += src[i] * row[i]
		s1 += src[i+1] * row[i+1]
		s2 += src[i+2] * row[i+2]
		s3 += src[i+3] * row[i+3]
	}
	s := s0 + s1 + s2 + s3
	for i := n4; i < len(row); i++ {
		s += src[i] * row[i]
	}
	g := coeff(label, s, lr)

	for i, r := range row {
		grad[i] += g * r
		row[i] = r + g*src[i]
	}
}

// add adds x to row v element-wise.
func (m *matrix) add(v int32, x []float64) {
	base := int(v) * m.dim
	row := m.data[base : base+m.dim : base+m.dim]
	for i, xv := range x {
		row[i] += xv
	}
}

// set copies vals into row v (warm start).
func (m *matrix) set(v int32, vals []float64) {
	copy(m.data[int(v)*m.dim:(int(v)+1)*m.dim], vals)
}

// rows converts the matrix to per-vertex slices once training finished;
// the caller owns the result.
func (m *matrix) rows() [][]float64 {
	out := make([][]float64, m.n)
	for v := 0; v < m.n; v++ {
		row := make([]float64, m.dim)
		copy(row, m.data[v*m.dim:(v+1)*m.dim])
		out[v] = row
	}
	return out
}

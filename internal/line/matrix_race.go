//go:build race || !(amd64 || arm64)

package line

import (
	"math"
	"sync/atomic"

	"repro/internal/mathx"
)

// matrix is the safe-path embedding store: an n×dim float64 matrix held
// as a flat slice of bit patterns accessed with sync/atomic. It gives
// the hogwild SGD workers lock-free shared updates without data races:
// concurrent addScaled calls to the same element may lose one increment
// (load and store are two operations), but every read and write is
// atomic, so the race detector is satisfied and no torn values are ever
// observed. It is selected under the race detector and on every
// platform where plain float64 accesses could tear (anything other than
// amd64/arm64); those 64-bit builds select the unsynchronized
// []float64 variant in matrix_norace.go, which skips the atomic traffic
// entirely. The uint64 slice is 64-bit aligned by the Go allocator, so
// the atomics are valid on 32-bit platforms too. With Workers=1 both
// variants perform identical arithmetic in the same order, so training
// stays bit-deterministic in the seed across build modes.
type matrix struct {
	n, dim int
	bits   []uint64
}

func newMatrix(n, dim int) *matrix {
	return &matrix{n: n, dim: dim, bits: make([]uint64, n*dim)}
}

// randomize fills the matrix with the standard LINE initialization,
// uniform in (-0.5/dim, 0.5/dim).
func (m *matrix) randomize(rng *mathx.RNG) {
	for i := range m.bits {
		m.bits[i] = math.Float64bits((rng.Float64() - 0.5) / float64(m.dim))
	}
}

func loadFloat(p *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(p))
}

// load copies row v into buf (length dim): the source vertex of one SGD
// sample, read once and held while the sample's target rows move.
func (m *matrix) load(v int32, buf []float64) {
	base := int(v) * m.dim
	for i := range buf {
		buf[i] = loadFloat(&m.bits[base+i])
	}
}

// sample is one SGD sample, to the contract on matrix_norace.go's
// sample: the same sequence over the atomic load, step and add.
//
//alloccheck:hot
func (m *matrix) sample(tgt *matrix, u int32, targets []int32, src, grad []float64, lr float64) {
	m.load(u, src)
	clear(grad)
	label := 1.0
	for _, t := range targets {
		tgt.step(t, src, grad, label, lr)
		label = 0
	}
	m.add(u, grad)
}

// step is one SGD update of target row t against src, to the arithmetic

// contract on matrix_norace.go's step: same accumulators, same order,
// same pre-update read, with every element access atomic (each element
// is loaded once for the score and once more for the update, as
// separate atomic operations).
//
//alloccheck:hot
func (m *matrix) step(t int32, src, grad []float64, label, lr float64) {
	row := m.bits[int(t)*m.dim:][:m.dim]
	src, grad = src[:len(row)], grad[:len(row)]
	n4 := len(row) &^ 3
	var s0, s1, s2, s3 float64
	for i := 0; i < n4; i += 4 {
		s0 += src[i] * loadFloat(&row[i])
		s1 += src[i+1] * loadFloat(&row[i+1])
		s2 += src[i+2] * loadFloat(&row[i+2])
		s3 += src[i+3] * loadFloat(&row[i+3])
	}
	s := s0 + s1 + s2 + s3
	for i := n4; i < len(row); i++ {
		s += src[i] * loadFloat(&row[i])
	}
	g := coeff(label, s, lr)

	for i := range row {
		r := loadFloat(&row[i])
		grad[i] += g * r
		atomic.StoreUint64(&row[i], math.Float64bits(r+g*src[i]))
	}
}

// add adds x to row v element-wise.
func (m *matrix) add(v int32, x []float64) {
	base := int(v) * m.dim
	for i, xv := range x {
		p := &m.bits[base+i]
		atomic.StoreUint64(p, math.Float64bits(loadFloat(p)+xv))
	}
}

// set copies vals into row v. Called only before workers start (warm
// start); the atomic stores keep the race detector satisfied if that
// ever changes.
func (m *matrix) set(v int32, vals []float64) {
	base := int(v) * m.dim
	for i, x := range vals {
		atomic.StoreUint64(&m.bits[base+i], math.Float64bits(x))
	}
}

// rows converts the matrix to per-vertex slices once training finished;
// the caller owns the result.
func (m *matrix) rows() [][]float64 {
	out := make([][]float64, m.n)
	for v := 0; v < m.n; v++ {
		row := make([]float64, m.dim)
		base := v * m.dim
		for i := range row {
			row[i] = math.Float64frombits(m.bits[base+i])
		}
		out[v] = row
	}
	return out
}

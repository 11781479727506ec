// Package svm implements a C-support-vector classifier trained with
// Platt's sequential minimal optimization (SMO), the supervised learning
// component of the paper's pipeline (§6.2). The paper uses an RBF kernel
// with penalty parameter C = 0.09 and kernel coefficient γ = 0.06; both
// are the defaults here. Decision values (Eq. 7) are exposed so the
// evaluation stage can sweep thresholds for ROC/AUC.
package svm

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/mathx"
)

// Kernel computes k(x, y) for feature vectors.
type Kernel interface {
	Compute(x, y []float64) float64
	// Name identifies the kernel in model summaries.
	Name() string
}

// RBF is the radial basis function kernel exp(-γ‖x−y‖²).
type RBF struct {
	Gamma float64
}

var _ Kernel = RBF{}

// Compute implements Kernel.
func (k RBF) Compute(x, y []float64) float64 {
	return math.Exp(-k.Gamma * mathx.SquaredDistance(x, y))
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Linear is the dot-product kernel.
type Linear struct{}

var _ Kernel = Linear{}

// Compute implements Kernel.
func (Linear) Compute(x, y []float64) float64 { return mathx.Dot(x, y) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// Config parameterizes training. Defaults follow the paper: RBF kernel,
// C = 0.09, γ = 0.06.
type Config struct {
	// C is the soft-margin penalty (default 0.09).
	C float64
	// Kernel defaults to RBF{Gamma: 0.06}.
	Kernel Kernel
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses bounds full sweeps without progress before SMO stops
	// (default 5); MaxIter bounds total pair optimizations (default
	// 200·n, minimum 200k).
	MaxPasses int
	MaxIter   int
	// Seed drives the internal tie-breaking randomness.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.C <= 0 {
		c.C = 0.09
	}
	if c.Kernel == nil {
		c.Kernel = RBF{Gamma: 0.06}
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 5
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200 * n
		if c.MaxIter < 200_000 {
			c.MaxIter = 200_000
		}
	}
	return c
}

// Model is a trained classifier. It retains only the support vectors.
type Model struct {
	kernel Kernel
	// svX are the support vectors; svCoef[i] = α_i·y_i with y ∈ {−1,+1}.
	svX    [][]float64
	svCoef []float64
	b      float64
	// Iters reports SMO pair-optimization steps taken during training.
	Iters int

	// RBF decision fast path (see initFastPath): per-SV squared norms so
	// Decision needs one dot product per support vector instead of a
	// subtract-square distance pass, and the support vectors again as a
	// blocked table so those dot products come sixteen a call.
	rbf      bool
	rbfGamma float64
	svNorm   []float64
	svTable  *mathx.RowTable
}

// initFastPath precomputes the per-support-vector squared norms that let
// RBF decisions use ‖sv−x‖² = ‖sv‖²+‖x‖²−2·sv·x, and copies the support
// vectors into a mathx.RowTable (8·dim bytes each, beside svX, which
// Save and the other kernels read). Called once after training or
// deserialization; models are immutable afterwards, so both stay valid.
func (m *Model) initFastPath() {
	rbf, ok := m.kernel.(RBF)
	if !ok || len(m.svX) == 0 {
		return
	}
	m.rbf = true
	m.rbfGamma = rbf.Gamma
	m.svNorm = make([]float64, len(m.svX))
	m.svTable = mathx.NewRowTable(len(m.svX), len(m.svX[0]))
	for i, sv := range m.svX {
		m.svNorm[i] = mathx.SquaredNorm(sv)
		m.svTable.SetRow(i, sv)
	}
}

// Errors returned by Train.
var (
	ErrNoData    = errors.New("svm: empty training set")
	ErrOneClass  = errors.New("svm: training set contains a single class")
	ErrDimension = errors.New("svm: inconsistent feature dimensions")
	ErrBadLabel  = errors.New("svm: labels must be 0 or 1")
)

// Train fits a binary classifier on X with labels y (0 = negative/benign,
// 1 = positive/malicious), following the paper's class convention.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	n := len(X)
	if n == 0 || len(y) != n {
		return nil, ErrNoData
	}
	dim := len(X[0])
	pos := 0
	for i, x := range X {
		if len(x) != dim {
			return nil, ErrDimension
		}
		switch y[i] {
		case 1:
			pos++
		case 0:
		default:
			return nil, ErrBadLabel
		}
	}
	if pos == 0 || pos == n {
		return nil, ErrOneClass
	}
	cfg = cfg.withDefaults(n)

	t := &trainer{
		cfg:      cfg,
		x:        X,
		y:        make([]float64, n),
		alpha:    make([]float64, n),
		errs:     make([]float64, n),
		rng:      mathx.NewRNG(cfg.Seed),
		diag:     make([]float64, n),
		rowLRU:   newRowCache(n, 256<<20/(8*n)+1),
		workers:  runtime.GOMAXPROCS(0),
		xs:       make([]float64, n*dim),
		dim:      dim,
		nonBound: make([]uint64, (n+63)/64),
		posAlpha: make([]uint64, (n+63)/64),
	}
	for i, x := range X {
		copy(t.xs[i*dim:], x)
	}
	if rbf, ok := cfg.Kernel.(RBF); ok {
		t.rbfGamma = rbf.Gamma
		t.rbfNorm = make([]float64, n)
		for i, x := range X {
			t.rbfNorm[i] = mathx.SquaredNorm(x)
		}
	}
	for i := range y {
		if y[i] == 1 {
			t.y[i] = 1
		} else {
			t.y[i] = -1
		}
		t.diag[i] = cfg.Kernel.Compute(X[i], X[i])
	}
	// Initial errors: f(x)=0, so E_i = −y_i.
	for i := range t.errs {
		t.errs[i] = -t.y[i]
	}

	t.run()

	// The trainer follows Platt's convention u(x) = Σ αyK − b; the model
	// stores the additive offset, hence the sign flip.
	m := &Model{kernel: cfg.Kernel, b: -t.b, Iters: t.iters}
	for i, a := range t.alpha {
		if a > 0 {
			m.svX = append(m.svX, X[i])
			m.svCoef = append(m.svCoef, a*t.y[i])
		}
	}
	m.initFastPath()
	return m, nil
}

// Decision returns the signed distance-like score of Eq. 7: positive
// predicts malicious (class 1).
func (m *Model) Decision(x []float64) float64 {
	s := m.b
	if m.rbf {
		nx := mathx.SquaredNorm(x)
		// dots[r] is mathx.Dot(svX[i], x) to the bit, for the sixteen
		// support vectors of one block at a time.
		var dots [mathx.RowBlock]float64
		for i := range m.svX {
			if i%mathx.RowBlock == 0 {
				m.svTable.Dots(i/mathx.RowBlock, x, &dots)
			}
			d := m.svNorm[i] + nx - 2*dots[i%mathx.RowBlock]
			if d < 0 { // rounding guard; true squared distances are >= 0
				d = 0
			}
			s += m.svCoef[i] * mathx.ExpNeg(-m.rbfGamma*d)
		}
		return s
	}
	for i, sv := range m.svX {
		s += m.svCoef[i] * m.kernel.Compute(sv, x)
	}
	return s
}

// Predict returns the class label (0 or 1) for x.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) > 0 {
		return 1
	}
	return 0
}

// NumSV returns the number of support vectors retained.
func (m *Model) NumSV() int { return len(m.svX) }

// KernelName reports the kernel used for training.
func (m *Model) KernelName() string { return m.kernel.Name() }

package svm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
)

// blobs generates two Gaussian clusters with the given separation.
func blobs(n int, sep float64, seed uint64) (X [][]float64, y []int) {
	rng := mathx.NewRNG(seed)
	for i := 0; i < n; i++ {
		label := i % 2
		cx := -sep / 2
		if label == 1 {
			cx = sep / 2
		}
		X = append(X, []float64{cx + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, label)
	}
	return X, y
}

func accuracy(m *Model, X [][]float64, y []int) float64 {
	right := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			right++
		}
	}
	return float64(right) / float64(len(X))
}

func TestLinearlySeparableBlobs(t *testing.T) {
	X, y := blobs(200, 6, 1)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, X, y); acc < 0.97 {
		t.Errorf("training accuracy %.3f on well-separated blobs, want >= 0.97", acc)
	}
	Xtest, ytest := blobs(200, 6, 2)
	if acc := accuracy(m, Xtest, ytest); acc < 0.95 {
		t.Errorf("test accuracy %.3f, want >= 0.95", acc)
	}
}

func TestXORNeedsRBF(t *testing.T) {
	// XOR is the canonical non-linear case: linear kernels fail, RBF
	// separates it.
	rng := mathx.NewRNG(3)
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := rng.Float64() > 0.5, rng.Float64() > 0.5
		px, py := -1.0, -1.0
		if a {
			px = 1
		}
		if b {
			py = 1
		}
		X = append(X, []float64{px + 0.2*rng.NormFloat64(), py + 0.2*rng.NormFloat64()})
		if a != b {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	rbf, err := Train(X, y, Config{C: 5, Kernel: RBF{Gamma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(rbf, X, y); acc < 0.95 {
		t.Errorf("RBF accuracy on XOR = %.3f, want >= 0.95", acc)
	}
	lin, err := Train(X, y, Config{C: 5, Kernel: Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(lin, X, y); acc > 0.75 {
		t.Errorf("linear kernel accuracy on XOR = %.3f; suspiciously high", acc)
	}
}

func TestDecisionSignMatchesPredict(t *testing.T) {
	X, y := blobs(120, 4, 9)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		d := m.Decision(x)
		p := m.Predict(x)
		if (d > 0) != (p == 1) {
			t.Fatalf("Decision %v disagrees with Predict %v", d, p)
		}
	}
}

func TestDecisionValuesRankClasses(t *testing.T) {
	X, y := blobs(200, 5, 17)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	posMean, negMean := 0.0, 0.0
	np, nn := 0, 0
	for i, x := range X {
		if y[i] == 1 {
			posMean += m.Decision(x)
			np++
		} else {
			negMean += m.Decision(x)
			nn++
		}
	}
	posMean /= float64(np)
	negMean /= float64(nn)
	if posMean <= negMean {
		t.Errorf("mean decision: pos %.3f <= neg %.3f", posMean, negMean)
	}
}

func TestAlphasRespectBoxConstraint(t *testing.T) {
	X, y := blobs(150, 1.5, 5) // heavy overlap so many alphas hit C
	cfg := Config{C: 0.09, Kernel: RBF{Gamma: 0.06}}
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSV() == 0 {
		t.Fatal("no support vectors")
	}
	for _, c := range m.svCoef {
		if math.Abs(c) > cfg.C+1e-9 {
			t.Fatalf("|alpha y| = %v exceeds C = %v", math.Abs(c), cfg.C)
		}
	}
}

func TestPaperHyperparametersOnOverlappingData(t *testing.T) {
	// With the paper's C=0.09, gamma=0.06 the classifier must still beat
	// chance comfortably on moderately separated data.
	X, y := blobs(400, 3, 7)
	m, err := Train(X, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, X, y); acc < 0.85 {
		t.Errorf("accuracy with paper defaults = %.3f, want >= 0.85", acc)
	}
	if m.KernelName() != "rbf(gamma=0.06)" {
		t.Errorf("kernel name = %q", m.KernelName())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: %v", err)
	}
	X := [][]float64{{1}, {2}}
	if _, err := Train(X, []int{1, 1}, Config{}); !errors.Is(err, ErrOneClass) {
		t.Errorf("one class: %v", err)
	}
	if _, err := Train(X, []int{0, 2}, Config{}); !errors.Is(err, ErrBadLabel) {
		t.Errorf("bad label: %v", err)
	}
	bad := [][]float64{{1, 2}, {3}}
	if _, err := Train(bad, []int{0, 1}, Config{}); !errors.Is(err, ErrDimension) {
		t.Errorf("dimension: %v", err)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	X, y := blobs(100, 3, 21)
	cfg := Config{C: 1, Kernel: RBF{Gamma: 0.3}, Seed: 9}
	a, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := X[i]
		if a.Decision(x) != b.Decision(x) {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestHighDimensionalSparseDifference(t *testing.T) {
	// Mimics the embedding setting: unit-ish vectors in 96-d where class
	// structure lives in a few coordinates.
	rng := mathx.NewRNG(31)
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		v := make([]float64, 96)
		for j := range v {
			v[j] = 0.05 * rng.NormFloat64()
		}
		label := i % 2
		if label == 1 {
			v[3] += 0.8
			v[40] -= 0.8
		} else {
			v[3] -= 0.8
			v[40] += 0.8
		}
		mathx.Normalize(v)
		X = append(X, v)
		y = append(y, label)
	}
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, X, y); acc < 0.95 {
		t.Errorf("high-dim accuracy %.3f, want >= 0.95", acc)
	}
}

func BenchmarkDecision(b *testing.B) {
	X, y := blobs(500, 3, 13)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.3}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decision(X[i%len(X)])
	}
}

package svm

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// takeRow registers key i and stamps the returned buffer with v so tests
// can tell buffers apart.
func takeRow(c *rowCache, i int, v float64) []float64 {
	row := c.take(i)
	row[0] = v
	return row
}

// Regression for the eviction policy: the cache is documented as LRU, so
// a get must refresh recency and eviction must remove the least recently
// *used* row — not the oldest-inserted one (the former FIFO behavior).
func TestRowCacheLRUHitRefresh(t *testing.T) {
	c := newRowCache(10, 2)

	takeRow(c, 1, 1)
	takeRow(c, 2, 2)
	if _, ok := c.get(1); !ok { // refreshes 1: LRU order is now [1, 2]
		t.Fatal("row 1 missing before eviction")
	}
	takeRow(c, 3, 3) // must evict 2 (least recently used), not 1

	if _, ok := c.get(2); ok {
		t.Error("row 2 survived eviction; FIFO behavior, want LRU")
	}
	if row, ok := c.get(1); !ok || row[0] != 1 {
		t.Error("row 1 evicted despite being refreshed by get")
	}
	if _, ok := c.get(3); !ok {
		t.Error("row 3 missing after take")
	}
	if c.len() != 2 {
		t.Errorf("cache holds %d rows, want 2", c.len())
	}
}

// take on an existing key must refresh recency and return the buffer
// already registered under that key.
func TestRowCacheLRUTakeRefresh(t *testing.T) {
	c := newRowCache(10, 2)
	r1 := takeRow(c, 1, 1)
	takeRow(c, 2, 2)
	if again := c.take(1); &again[0] != &r1[0] { // refresh 1, same buffer
		t.Fatal("take on an existing key returned a different buffer")
	}
	takeRow(c, 3, 3) // evicts 2

	if _, ok := c.get(2); ok {
		t.Error("row 2 survived eviction after take-refresh of row 1")
	}
	if row, ok := c.get(1); !ok || row[0] != 1 {
		t.Error("row 1 evicted or replaced; take on existing key should keep the cached row")
	}
}

// Eviction must hand the evicted row's buffer to the new key rather than
// allocating: SMO touches thousands of rows per training run and the
// recycle is what keeps the steady state allocation-free.
func TestRowCacheTakeRecyclesEvictedBuffer(t *testing.T) {
	c := newRowCache(10, 2)
	r1 := takeRow(c, 1, 1)
	takeRow(c, 2, 2)
	r3 := c.take(3) // evicts 1 (LRU) and should reuse its buffer
	if &r3[0] != &r1[0] {
		t.Error("take did not recycle the evicted row's buffer")
	}
	if len(r3) != 10 {
		t.Errorf("recycled buffer has length %d, want row length 10", len(r3))
	}
	if _, ok := c.get(1); ok {
		t.Error("row 1 survived eviction")
	}
}

func TestRowCacheCapClamps(t *testing.T) {
	c := newRowCache(3, 100) // cap > n clamps to n
	for i := 0; i < 3; i++ {
		takeRow(c, i, float64(i))
	}
	if c.len() != 3 {
		t.Errorf("cache holds %d rows, want 3", c.len())
	}
	takeRow(c, 9, 9)
	if c.len() != 3 {
		t.Errorf("cache grew past its cap: %d rows", c.len())
	}
	if _, ok := c.get(0); ok {
		t.Error("least recently used row 0 should have been evicted")
	}
}

// The cached-norm RBF fast path must agree with the reference kernel sum
// to within the documented ExpNeg error.
func TestDecisionFastPathMatchesReference(t *testing.T) {
	X, y := blobs(120, 3, 41)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.rbf {
		t.Fatal("RBF model did not enable the decision fast path")
	}
	for _, x := range X[:40] {
		got := m.Decision(x)
		want := m.b
		for i, sv := range m.svX {
			want += m.svCoef[i] * m.kernel.Compute(sv, x)
		}
		if diff := math.Abs(got - want); diff > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("fast-path decision %v vs reference %v (diff %v)", got, want, diff)
		}
	}
}

// TestDecisionMatchesDotLoop holds the blocked-table decision, kernel
// on and off, to the loop it replaced — one mathx.Dot and one ExpNeg a
// support vector, summed in index order — bit for bit: decision values
// are what model hashes, served rows and alert feeds are made of. The
// sizes leave a partial last block and a dimension with a mod-4 tail.
func TestDecisionMatchesDotLoop(t *testing.T) {
	X, y := blobs(150, 7, 41)
	m, err := Train(X, y, Config{C: 1, Kernel: RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSV()%mathx.RowBlock == 0 {
		t.Fatalf("%d support vectors fill their last block; change the fixture", m.NumSV())
	}
	defer mathx.UseRowKernel(mathx.UseRowKernel(false))
	for _, kernel := range []bool{false, true} {
		mathx.UseRowKernel(kernel)
		for _, x := range X {
			want, nx := m.b, mathx.SquaredNorm(x)
			for i, sv := range m.svX {
				d := m.svNorm[i] + nx - 2*mathx.Dot(sv, x)
				if d < 0 {
					d = 0
				}
				want += m.svCoef[i] * mathx.ExpNeg(-m.rbfGamma*d)
			}
			if got := m.Decision(x); got != want {
				t.Fatalf("kernel %v: Decision %v, the Dot loop gives %v", kernel, got, want)
			}
		}
	}
}

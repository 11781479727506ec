//go:build amd64

package line

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/mathx"
)

// withKernel runs f with the AVX kernel switched on or off and restores
// the init-time choice. It skips when the machine cannot run it.
func withKernel(t testing.TB, avx bool, f func()) {
	t.Helper()
	if !mathx.CPUHasAVX() {
		t.Skip("CPU or OS without AVX: the pure-Go sample is the only path here")
	}
	defer func(was bool) { useAVX = was }(useAVX)
	useAVX = avx
	f()
}

// runBothKernels runs one sample through the pure-Go loop and through
// the AVX kernel.
func runBothKernels(t testing.TB, c sampleCase) (goRes, avxRes sampleResult) {
	withKernel(t, false, func() { goRes = c.run() })
	withKernel(t, true, func() { avxRes = c.run() })
	return
}

func TestSampleKernelMatchesGo(t *testing.T) {
	forEachSampleCase(func(name string, c sampleCase) {
		goRes, avxRes := runBothKernels(t, c)
		if !goRes.same(avxRes) {
			t.Fatalf("%s: AVX sample differs from Go sample\navx %+v\ngo  %+v", name, avxRes, goRes)
		}
		// And the Go loop, which TestSampleMatchesReference only reaches
		// on machines without AVX, against the unfused sequence.
		if !goRes.same(c.reference()) {
			t.Fatalf("%s: Go sample differs from reference", name)
		}
	})
}

// TestSampleKernelSigmoid walks the kernel's inlined sigmoid along
// mathx.FastSigmoid's table: every knot and its neighbours (where the
// interval index changes), midpoints, both clamps and the values one
// ulp inside them (just below 6 the index rounds up to 1024), zeros,
// denormals, infinities and NaN. The probe is a two-element sample with
// source [x, 1] and target row [1, -0]: the score is x, and the row's
// second element becomes -0 + g·1, which is g to the bit, the sign of a
// zero included. A negative example's row goes second, behind a
// positive one that cannot disturb it.
func TestSampleKernelSigmoid(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xs := []float64{
		6, -6, math.Nextafter(6, 0), math.Nextafter(-6, 0), math.Nextafter(6, 7), math.Nextafter(-6, -7),
		0, negZero, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), hwNaN,
	}
	table := mathx.SigmoidTable()
	step := 12 / float64(len(table)-1)
	for i := range table {
		knot := -6 + float64(i)*step
		xs = append(xs, knot, math.Nextafter(knot, -7), math.Nextafter(knot, 7), knot+step/2, knot+step/3)
	}
	withKernel(t, true, func() {
		for _, lr := range []float64{0.025, 0.0123456789, 2.5e-6} {
			for _, x := range xs {
				for _, label := range []float64{1, 0} {
					c := sampleCase{
						emb:     [][]float64{{x, 1}},
						tgt:     [][]float64{{0, 0}, {1, negZero}},
						targets: []int32{1},
						lr:      lr,
					}
					if label == 0 {
						c.targets = []int32{0, 1}
					}
					got, want := c.run().tgt[1][1], coeff(label, x, lr)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("x=%v (%#x) label=%v lr=%v: kernel coefficient %v (%#x), coeff %v (%#x)",
							x, math.Float64bits(x), label, lr, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestTrainSameAcrossKernels trains whole embeddings with the kernel on
// and off: the switch must not move a bit.
func TestTrainSameAcrossKernels(t *testing.T) {
	for _, dim := range []int{32, 16, 10, 6} {
		for _, warm := range []bool{false, true} {
			var goSHA, avxSHA string
			withKernel(t, false, func() { goSHA = embeddingSHA(pinnedTrain(t, dim, OrderBoth, warm)) })
			withKernel(t, true, func() { avxSHA = embeddingSHA(pinnedTrain(t, dim, OrderBoth, warm)) })
			if goSHA != avxSHA {
				t.Errorf("dim %d warm=%v: Go kernel %s, AVX kernel %s", dim, warm, goSHA, avxSHA)
			}
		}
	}
}

// FuzzSampleKernel feeds arbitrary bit patterns as rows. The first four
// bytes pick the row length (1…40) and first or second order, the
// source row, the number of targets (1…6) and, two bits each, which of
// four rows every target is — so rows repeat, and the source row can be
// a target, which no trainer does but the sequence defines. The rest
// are little-endian float64 bits: lr, then the rows. NaNs are folded to
// hwNaN (see there).
func FuzzSampleKernel(f *testing.F) {
	seed := func(head [4]byte, vals ...float64) {
		b := head[:]
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed([4]byte{3, 0, 2, 0b0110_1101}, 0.025, 0.1, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7, -0.8, 0.9, 1, 2, 3, 4)
	seed([4]byte{8 | 0x80, 1, 5, 0b1011_1010}, 0.01, 1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1), math.MaxFloat64, 5e-324, math.Copysign(0, -1))
	seed([4]byte{39, 2, 3, 0b0101_0101}, 0.025, 6, 6, 6, -6, -6, -6)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const rows = 4
		dim := int(data[0]&0x7f)%40 + 1
		second := data[0]>>7 == 1
		c := sampleCase{u: int32(data[1] % rows)}
		picks := uint16(data[3]) | uint16(data[1]>>2)<<8
		for k := 0; k < int(data[2])%6+1; k++ {
			c.targets = append(c.targets, int32(picks>>(2*k))%rows)
		}
		data = data[4:]
		next := func() float64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			x := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			if math.IsNaN(x) {
				return hwNaN
			}
			return x
		}
		fill := func() [][]float64 {
			m := make([][]float64, rows)
			for v := range m {
				m[v] = make([]float64, dim)
				for i := range m[v] {
					m[v][i] = next()
				}
			}
			return m
		}
		c.lr = next()
		c.emb = fill()
		if second {
			c.tgt = fill()
		}
		goRes, avxRes := runBothKernels(t, c)
		if !goRes.same(avxRes) {
			t.Fatalf("dim %d second %v u %d targets %v lr %v: AVX sample differs from Go sample\navx %+v\ngo  %+v",
				dim, second, c.u, c.targets, c.lr, avxRes, goRes)
		}
	})
}

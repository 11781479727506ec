//go:build amd64 && !race

package line

import (
	"encoding/binary"
	"math"
	"testing"
)

// withKernel runs f with the AVX kernels switched on or off and
// restores the init-time choice. It skips when the machine cannot run
// them.
func withKernel(t testing.TB, avx bool, f func()) {
	t.Helper()
	if !cpuHasAVX() {
		t.Skip("CPU or OS without AVX: the pure-Go step is the only path here")
	}
	defer func(was bool) { useAVX = was }(useAVX)
	useAVX = avx
	f()
}

// stepBothKernels runs one step through the pure-Go loop and through
// the AVX kernels and returns each one's updated row and grad.
func stepBothKernels(t testing.TB, row, src, grad []float64, label, lr float64) (goRow, goGrad, avxRow, avxGrad []float64) {
	goGrad = append([]float64(nil), grad...)
	avxGrad = append([]float64(nil), grad...)
	withKernel(t, false, func() { goRow = runStep(row, src, goGrad, label, lr) })
	withKernel(t, true, func() { avxRow = runStep(row, src, avxGrad, label, lr) })
	return
}

func TestStepKernelMatchesGo(t *testing.T) {
	forEachStepCase(func(name string, row, src, grad []float64, label, lr float64) {
		goRow, goGrad, avxRow, avxGrad := stepBothKernels(t, row, src, grad, label, lr)
		if !sameBits(goRow, avxRow) || !sameBits(goGrad, avxGrad) {
			t.Fatalf("%s: AVX step differs from Go step\nrow  %v\ngo   %v\ngrad %v\ngo   %v", name, avxRow, goRow, avxGrad, goGrad)
		}
		// And the Go loop, which TestStepMatchesReference only reaches
		// on machines without AVX, against the sequence it replaced.
		wantRow := append([]float64(nil), row...)
		wantGrad := append([]float64(nil), grad...)
		referenceStep(wantRow, src, wantGrad, label, lr)
		if !sameBits(goRow, wantRow) || !sameBits(goGrad, wantGrad) {
			t.Fatalf("%s: Go step differs from reference", name)
		}
	})
}

// TestTrainSameAcrossKernels trains whole embeddings with the kernels on
// and off: at Workers=1 the switch must not move a bit.
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

// FuzzStepKernel feeds arbitrary bit patterns as rows: the first byte
// picks the length (1…40) and the label, the rest are little-endian
// float64 bits for lr, then row, src and grad interleaved. NaNs are
// folded to hwNaN (see there).
func FuzzStepKernel(f *testing.F) {
	seed := func(dimLabel byte, vals ...float64) {
		b := []byte{dimLabel}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(3, 0.025, 0.1, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7, -0.8, 0.9)
	seed(8|0x80, 0.01, 1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1), math.MaxFloat64, 5e-324, math.Copysign(0, -1))
	seed(39, 0.025, 6, 6, 6, -6, -6, -6)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := int(data[0]&0x7f)%40 + 1
		label := float64(data[0] >> 7)
		data = data[1:]
		next := func() float64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			x := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			if math.IsNaN(x) {
				return hwNaN
			}
			return x
		}
		lr := next()
		row, src, grad := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for i := 0; i < dim; i++ {
			row[i], src[i], grad[i] = next(), next(), next()
		}
		goRow, goGrad, avxRow, avxGrad := stepBothKernels(t, row, src, grad, label, lr)
		if !sameBits(goRow, avxRow) || !sameBits(goGrad, avxGrad) {
			t.Fatalf("dim %d label %v lr %v: AVX step differs from Go step\nrow  %v\ngo   %v\ngrad %v\ngo   %v",
				dim, label, lr, avxRow, goRow, avxGrad, goGrad)
		}
	})
}

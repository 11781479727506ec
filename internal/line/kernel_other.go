//go:build !amd64

package line

// There is no vector kernel off amd64: matrix.sample's pure-Go loop is
// the only path, and the compiler drops the branch guarded by useAVX.
const useAVX = false

func sampleAVX(urow, tgt *float64, dim int, targets []int32, src, grad *float64, lr float64, sigmoid *[1025]float64) {
	panic("line: no AVX kernel on this architecture")
}

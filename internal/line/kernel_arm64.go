//go:build arm64 && !race

package line

// There is no vector kernel on arm64: matrix.step's pure-Go loop is the
// only path, and the compiler drops the branches guarded by useAVX.
const useAVX = false

func dotAVX(a, b *float64, n int) float64 { panic("line: no AVX kernel on arm64") }

func updateAVX(row, src, grad *float64, n int, k float64) { panic("line: no AVX kernel on arm64") }

//go:build amd64 && !race

package line

// useAVX selects the vector kernels in matrix.step, decided once from
// what the CPU and the OS report. GOAMD64 defaults to v1, which does
// not promise AVX, so a build tag cannot make this choice.
var useAVX = cpuHasAVX()

// Implemented in kernel_amd64.s.

//go:noescape
func dotAVX(a, b *float64, n int) float64

//go:noescape
func updateAVX(row, src, grad *float64, n int, k float64)

func cpuHasAVX() bool

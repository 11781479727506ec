//go:build amd64

package line

import "repro/internal/mathx"

// useAVX selects the assembly form of matrix.sample, decided once from
// what the CPU and the OS report. GOAMD64 defaults to v1, which does
// not promise AVX, so a build tag cannot make this choice.
var useAVX = mathx.CPUHasAVX()

// Implemented in kernel_amd64.s.

//go:noescape
func sampleAVX(urow, tgt *float64, dim int, targets []int32, src, grad *float64, lr float64, sigmoid *[1025]float64)

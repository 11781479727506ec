//go:build amd64

package mathx

// useAVX selects the assembly form of RowTable's dots, decided once
// from what the CPU and the OS report. GOAMD64 defaults to v1, which
// does not promise AVX, so a build tag cannot make this choice.
var useAVX = CPUHasAVX()

// UseRowKernel switches RowTable's AVX kernels off or back on and
// returns the previous setting, so that a test of a package built on
// RowTable can compare the two paths; on is ignored on a machine
// without AVX. Not for concurrent use.
func UseRowKernel(on bool) (was bool) {
	was, useAVX = useAVX, on && CPUHasAVX()
	return was
}

// Implemented in rowtable_amd64.s.

// CPUHasAVX reports whether AVX instructions may run: CPUID says the
// CPU has them and XCR0 that the OS saves the YMM state.
func CPUHasAVX() bool

//go:noescape
func rowDotsAVX(block, x *float64, dim int, out *[RowBlock]float64)

//go:noescape
func rowSerialDotsAVX(block, x *float64, dim int, out *[RowBlock]float64)

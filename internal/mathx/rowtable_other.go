//go:build !amd64

package mathx

// There is no vector kernel off amd64: RowTable's Go loops are the only
// path, and the compiler drops the branches guarded by useAVX.
const useAVX = false

// UseRowKernel is a no-op without a kernel to switch.
func UseRowKernel(bool) bool { return false }

func rowDotsAVX(block, x *float64, dim int, out *[RowBlock]float64) {
	panic("mathx: no AVX kernel on this architecture")
}

func rowSerialDotsAVX(block, x *float64, dim int, out *[RowBlock]float64) {
	panic("mathx: no AVX kernel on this architecture")
}

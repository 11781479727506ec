package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// hwNaN is the one NaN the row-dot tests feed in: the quiet NaN x86
// produces itself for Inf−Inf and 0·Inf. Which operand's payload a NaN
// result carries is the hardware's choice and the compiler may commute
// operands, so bit equality of NaN results is only defined when a
// single payload is in flight.
var hwNaN = math.Float64frombits(0xFFF8000000000000)

// referenceSerialDot is the loop the fold-in kNN sweep ran before
// RowTable: one accumulator, left to right.
func referenceSerialDot(row, x []float64) float64 {
	var dot float64
	for d, v := range row {
		dot += v * x[d]
	}
	return dot
}

// checkRowDots builds a table of rows and requires, for every row, in
// both summation orders, with the kernel off and on, the bits of the
// loop the order comes from: Dot for Dots, referenceSerialDot for
// SerialDots. Without AVX the second round repeats the first.
func checkRowDots(t *testing.T, rows [][]float64, x []float64) {
	t.Helper()
	tab := NewRowTable(len(rows), len(x))
	for i, row := range rows {
		tab.SetRow(i, row)
	}
	defer UseRowKernel(UseRowKernel(false))
	for _, kernel := range []bool{false, true} {
		UseRowKernel(kernel)
		var dots, serial [RowBlock]float64
		for i, row := range rows {
			if i%RowBlock == 0 {
				tab.Dots(i/RowBlock, x, &dots)
				tab.SerialDots(i/RowBlock, x, &serial)
			}
			if got, want := dots[i%RowBlock], Dot(row, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d rows, dim %d, kernel %v: Dots row %d = %x (%v), Dot gives %x (%v)",
					len(rows), len(x), kernel, i, math.Float64bits(got), got, math.Float64bits(want), want)
			}
			if got, want := serial[i%RowBlock], referenceSerialDot(row, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d rows, dim %d, kernel %v: SerialDots row %d = %x (%v), the serial loop gives %x (%v)",
					len(rows), len(x), kernel, i, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}

// TestRowDotsMatchGo walks dimensions 0…67 (every d mod 4 tail, and
// the empty vector the kernels are not called for) and 1…50 rows
// (every partial last block), once with ordinary values and once with
// a mix of zeros of both signs, subnormals, huge values, infinities
// and NaN.
func TestRowDotsMatchGo(t *testing.T) {
	rng := NewRNG(23)
	ordinary := func() float64 { return rng.Float64() - 0.5 }
	mixed := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return hwNaN
		case 1:
			return math.Inf(rng.Intn(2)*2 - 1)
		case 2:
			return math.Copysign(0, rng.Float64()-0.5)
		case 3:
			return (rng.Float64() - 0.5) * math.MaxFloat64
		case 4:
			return math.Copysign(math.Float64frombits(rng.Uint64()>>12), rng.Float64()-0.5)
		}
		return rng.Float64() - 0.5
	}
	for _, gen := range []func() float64{ordinary, mixed} {
		vec := func(dim int) []float64 {
			v := make([]float64, dim)
			for i := range v {
				v[i] = gen()
			}
			return v
		}
		for dim := 0; dim <= 67; dim++ {
			for n := 1; n <= 50; n++ {
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = vec(dim)
				}
				checkRowDots(t, rows, vec(dim))
			}
		}
	}
}

// TestRowDotsZeroSigns pins the one place the start value shows: every
// product −0 sums to +0 from a +0 accumulator, in both orders, and to
// −0 nowhere.
func TestRowDotsZeroSigns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for dim := 1; dim <= 9; dim++ {
		row, x := make([]float64, dim), make([]float64, dim)
		for i := range row {
			row[i], x[i] = negZero, 1
		}
		checkRowDots(t, [][]float64{row}, x)
	}
}

func TestRowTablePanics(t *testing.T) {
	tab := NewRowTable(3, 4)
	var out [RowBlock]float64
	for name, f := range map[string]func(){
		"short row":      func() { tab.SetRow(0, make([]float64, 3)) },
		"row past end":   func() { tab.SetRow(3, make([]float64, 4)) },
		"short vector":   func() { tab.Dots(0, make([]float64, 3), &out) },
		"long vector":    func() { tab.SerialDots(0, make([]float64, 5), &out) },
		"block past end": func() { tab.Dots(1, make([]float64, 4), &out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzRowDots holds the kernels to the Go loops on arbitrary bit
// patterns. The first byte is the dimension (1…67), the rest
// little-endian float64 bits: the vector, then as many whole rows as
// remain (at least one, zero-filled when the input runs out; at most
// four blocks). NaNs are folded to hwNaN (see there).
func FuzzRowDots(f *testing.F) {
	seed := func(dim byte, vals ...float64) {
		b := []byte{dim}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(2, 0.5, -0.25, 1, 2, 3, 4, 5, 6)
	seed(4, 1, math.Inf(1), 5e-324, math.Copysign(0, -1), math.MaxFloat64, -1, 2, 0)
	seed(0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := int(data[0])%67 + 1
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
		vec := func() []float64 {
			v := make([]float64, dim)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		x := vec()
		rows := [][]float64{vec()}
		for len(data) >= 8*dim && len(rows) < 4*RowBlock {
			rows = append(rows, vec())
		}
		checkRowDots(t, rows, x)
	})
}

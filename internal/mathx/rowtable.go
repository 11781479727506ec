package mathx

// RowBlock is how many rows a RowTable keeps in one block, and so how
// many dot products one Dots or SerialDots call returns.
const RowBlock = 16

// RowTable holds rows of one dimension for the one operation the
// fold-in kNN sweep (internal/core) and the RBF decision (internal/svm)
// share: dot every row with one vector. Rows sit in blocks of RowBlock,
// row i in block i/RowBlock, dimension-major inside a block — element d
// of row r of block b is data[(b·dim+d)·RowBlock+r] — so one 32-byte
// load is one dimension of four rows and a vector lane is a row; rows
// the last block lacks are zero. A table costs 8·dim bytes a row, is
// immutable once its rows are set, and is then safe for concurrent use.
//
// There are two entry points because two summation orders are already
// contracts of their callers, pinned to the bit by model hashes and
// served scores: Dots adds as Dot does, SerialDots left to right. Each
// has the Go loop below and, on amd64 with AVX, a kernel in
// rowtable_amd64.s that rounds every product before it is added
// (VMULPD then VADDPD, never FMA) in the same order, so the two agree
// bit for bit (a NaN result is NaN on both; its payload is the
// hardware's choice).
type RowTable struct {
	rows, dim int
	data      []float64
}

// NewRowTable returns a table of rows rows of dimension dim, all zero.
func NewRowTable(rows, dim int) *RowTable {
	blocks := (rows + RowBlock - 1) / RowBlock
	return &RowTable{rows: rows, dim: dim, data: make([]float64, blocks*dim*RowBlock)}
}

// SetRow copies row into row i of the table.
func (t *RowTable) SetRow(i int, row []float64) {
	if len(row) != t.dim {
		panic("mathx: RowTable row length mismatch")
	}
	if i < 0 || i >= t.rows {
		panic("mathx: RowTable row out of range")
	}
	base := i/RowBlock*t.dim*RowBlock + i%RowBlock
	for d, x := range row {
		t.data[base+d*RowBlock] = x
	}
}

// block returns block b's elements. Like Dot it panics on a vector of
// the wrong length.
func (t *RowTable) block(b int, x []float64) []float64 {
	if len(x) != t.dim {
		panic("mathx: RowTable vector length mismatch")
	}
	n := t.dim * RowBlock
	return t.data[b*n:][:n]
}

// Dots sets out[r] to Dot(row b·RowBlock+r, x), bit for bit: the
// leading len(x)&^3 products in four accumulators by d mod 4, summed
// ((s0+s1)+s2)+s3, then the trailing products in index order.
func (t *RowTable) Dots(b int, x []float64, out *[RowBlock]float64) {
	blk := t.block(b, x)
	if useAVX && len(x) > 0 {
		rowDotsAVX(&blk[0], &x[0], len(x), out)
		return
	}
	n4 := len(x) &^ 3
	for r := range out {
		var s0, s1, s2, s3 float64
		d := 0
		for ; d < n4; d += 4 {
			at := blk[d*RowBlock+r:][:3*RowBlock+1]
			s0 += at[0] * x[d]
			s1 += at[RowBlock] * x[d+1]
			s2 += at[2*RowBlock] * x[d+2]
			s3 += at[3*RowBlock] * x[d+3]
		}
		s := s0 + s1 + s2 + s3
		for ; d < len(x); d++ {
			s += blk[d*RowBlock+r] * x[d]
		}
		out[r] = s
	}
}

// SerialDots sets out[r] to the dot product of row b·RowBlock+r with x
// summed left to right from zero: s += row[d]·x[d] for d = 0 … len(x)−1.
func (t *RowTable) SerialDots(b int, x []float64, out *[RowBlock]float64) {
	blk := t.block(b, x)
	if useAVX && len(x) > 0 {
		rowSerialDotsAVX(&blk[0], &x[0], len(x), out)
		return
	}
	// Four rows a pass: four independent add chains.
	for r := 0; r < RowBlock; r += 4 {
		var s0, s1, s2, s3 float64
		for d, xd := range x {
			at := blk[d*RowBlock+r:][:4]
			s0 += at[0] * xd
			s1 += at[1] * xd
			s2 += at[2] * xd
			s3 += at[3] * xd
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
}

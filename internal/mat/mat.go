// Package mat provides the dense float64 matrix kernels underlying the
// GCN runtime predictor: row-major storage, cache-blocked
// multiplication, transposed-operand products for backpropagation, and
// elementwise helpers.
package mat

import (
	"fmt"
	"math"
	"math/rand"

	"edacloud/internal/par"
)

// Dense is a row-major matrix. The zero value is not usable; construct
// with New or FromRows.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows copies a slice of equal-length rows into a Dense.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d (%d vs %d)", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Glorot fills the matrix with Xavier/Glorot-uniform random weights.
func (m *Dense) Glorot(rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// parFlops is the kernel work (multiply-add count) below which the
// parallel paths are not worth their scheduling overhead.
const parFlops = 1 << 15

// rowGrain sizes row chunks so each holds roughly parFlops work.
func rowGrain(rows, flopsPerRow int) int {
	if flopsPerRow < 1 {
		flopsPerRow = 1
	}
	g := parFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	if g > rows {
		g = rows
	}
	return g
}

// Mul computes out = a * b, allocating out when nil is passed.
func Mul(a, b, out *Dense) *Dense { return MulPool(par.Default(), a, b, out) }

// MulPool is Mul on an explicit worker pool. Rows of out are
// partitioned across workers; each row's accumulation order matches
// the serial kernel exactly, so the result is bit-identical for any
// pool size.
func MulPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Rows, b.Cols)
	flopsPerRow := a.Cols * b.Cols
	if p.Workers() > 1 && a.Rows*flopsPerRow >= parFlops {
		p.For(a.Rows, rowGrain(a.Rows, flopsPerRow), func(lo, hi int) {
			mulRows(a, b, out, lo, hi)
		})
	} else {
		mulRows(a, b, out, 0, a.Rows)
	}
	return out
}

// mulRows computes rows [lo, hi) of out = a * b in ikj order: streams
// b rows, accumulates into out rows.
func mulRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		aRow := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := aRow[k]
			if aik == 0 {
				continue
			}
			axpy(aik, b.Row(k), oRow)
		}
	}
}

// MulATB computes out = aᵀ * b (for weight gradients).
func MulATB(a, b, out *Dense) *Dense { return MulATBPool(par.Default(), a, b, out) }

// MulATBPool is MulATB on an explicit worker pool, partitioned over
// rows of out (columns of a). Each (i, j) accumulates over a's rows
// in ascending order exactly as the serial kernel does, so results
// are bit-identical for any pool size.
func MulATBPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Cols, b.Cols)
	flopsPerRow := a.Rows * b.Cols
	if p.Workers() > 1 && a.Cols*flopsPerRow >= parFlops {
		p.For(a.Cols, rowGrain(a.Cols, flopsPerRow), func(lo, hi int) {
			mulATBRows(a, b, out, lo, hi)
		})
	} else {
		mulATBRows(a, b, out, 0, a.Cols)
	}
	return out
}

// mulATBRows computes rows [lo, hi) of out = aᵀ * b: out row i gathers
// column i of a against the rows of b, ascending over a's rows.
func mulATBRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i]
			if av == 0 {
				continue
			}
			axpy(av, b.Row(r), oRow)
		}
	}
}

// MulABT computes out = a * bᵀ (for input gradients).
func MulABT(a, b, out *Dense) *Dense { return MulABTPool(par.Default(), a, b, out) }

// MulABTPool is MulABT on an explicit worker pool, partitioned over
// rows of out (rows of a); dot products keep their serial order, so
// results are bit-identical for any pool size.
func MulABTPool(p *par.Pool, a, b, out *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABT shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = prep(out, a.Rows, b.Rows)
	flopsPerRow := a.Cols * b.Rows
	if p.Workers() > 1 && a.Rows*flopsPerRow >= parFlops {
		p.For(a.Rows, rowGrain(a.Rows, flopsPerRow), func(lo, hi int) {
			mulABTRows(a, b, out, lo, hi)
		})
	} else {
		mulABTRows(a, b, out, 0, a.Rows)
	}
	return out
}

// mulABTRows computes rows [lo, hi) of out = a * bᵀ.
func mulABTRows(a, b, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		aRow := a.Row(i)
		oRow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			oRow[j] = dot(aRow, b.Row(j))
		}
	}
}

// The inner loops of the three products, dot and axpy, are unrolled
// by four with every operation kept in its original order, so results
// are bit-identical to one-element loops. A one-element loop's speed
// hinged on where the linker placed it: on a 2-vCPU Xeon a product
// kernel ran about 25% slower when its loop body straddled a 64-byte
// code line, which an edit to any package linked before mat could
// cause. The unrolled loops are faster at either placement.

// dot returns the sum of a[k]*b[k], accumulated in ascending k.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var acc float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		acc += a[k] * b[k]
		acc += a[k+1] * b[k+1]
		acc += a[k+2] * b[k+2]
		acc += a[k+3] * b[k+3]
	}
	for ; k < len(a); k++ {
		acc += a[k] * b[k]
	}
	return acc
}

// axpy adds alpha*x to dst elementwise; x is at least as long as dst.
func axpy(alpha float64, x, dst []float64) {
	x = x[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += alpha * x[j]
		dst[j+1] += alpha * x[j+1]
		dst[j+2] += alpha * x[j+2]
		dst[j+3] += alpha * x[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += alpha * x[j]
	}
}

func prep(out *Dense, rows, cols int) *Dense {
	if out == nil {
		return New(rows, cols)
	}
	if out.Rows != rows || out.Cols != cols {
		panic(fmt.Sprintf("mat: output shape %dx%d, want %dx%d", out.Rows, out.Cols, rows, cols))
	}
	out.Zero()
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: AddInPlace shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ReLU applies max(0, x) in place and returns a mask matrix with 1
// where the activation passed through (for backprop).
func ReLU(m *Dense) *Dense {
	mask := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// MulElem computes a *= b elementwise (used with ReLU masks).
func MulElem(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MulElem shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] *= v
	}
}

// SumRows returns the column-wise sum as a 1 x Cols matrix
// (sum-pooling over graph nodes).
func SumRows(m *Dense) *Dense {
	out := New(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// Frob returns the Frobenius norm.
func (m *Dense) Frob() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

package mat

import (
	"math"
	"math/rand"
	"testing"

	"edacloud/internal/par"
)

func randSparseDense(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Intn(16) == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		}
	}
	return m
}

func sameDense(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: element %d = %x, want %x (not bit-identical)", name, i, got.Data[i], v)
		}
	}
}

// TestPooledKernelsBitIdentical: the parallel matmul kernels must be
// bit-identical to the single-worker path — large enough shapes to
// cross the parallel threshold — at 1, 2 and 8 workers.
func TestPooledKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSparseDense(rng, 257, 96)
	b := randSparseDense(rng, 96, 131)
	c := randSparseDense(rng, 257, 96) // same shape as a for ATB
	d := randSparseDense(rng, 513, 96) // tall operand for ABT
	serial := par.Fixed(1)

	wantMul := MulPool(serial, a, b, nil)
	wantATB := MulATBPool(serial, a, c, nil)
	wantABT := MulABTPool(serial, a, d, nil)

	for _, w := range []int{2, 8} {
		p := par.Fixed(w)
		sameDense(t, "Mul", MulPool(p, a, b, nil), wantMul)
		sameDense(t, "MulATB", MulATBPool(p, a, c, nil), wantATB)
		sameDense(t, "MulABT", MulABTPool(p, a, d, nil), wantABT)
	}
}

// TestPooledKernelsMatchNaive: the kernels must agree with a direct
// triple-loop reference within floating-point reassociation error —
// and Mul/ABT exactly, since they never reassociate.
func TestPooledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSparseDense(rng, 64, 48)
	b := randSparseDense(rng, 48, 33)
	naive := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			naive.Set(i, j, s)
		}
	}
	got := MulPool(par.Fixed(8), a, b, nil)
	for i := range naive.Data {
		diff := got.Data[i] - naive.Data[i]
		if diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("element %d: %g vs naive %g", i, got.Data[i], naive.Data[i])
		}
	}
}

// TestProductsSumInOrder: every output of Mul, MulATB and MulABT is
// its dot product accumulated in ascending order with one rounding per
// step (Mul and MulATB skip zero a entries), bit for bit, at every row
// width, so the unrolled kernels' tails are covered too.
func TestProductsSumInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 11; n++ {
		a := randSparseDense(rng, 7, n)
		b := randSparseDense(rng, 5, n)
		c := randSparseDense(rng, n, 9)
		d := randSparseDense(rng, 7, n)
		for _, m := range []*Dense{b, c, d} {
			for i := range m.Data {
				m.Data[i] *= math.Pow(10, float64(rng.Intn(9)-4)) // magnitudes that make the order matter
			}
		}
		check := func(name string, got *Dense, i, j int, terms func(k int) (float64, float64), kn int) {
			t.Helper()
			var want float64
			for k := 0; k < kn; k++ {
				x, y := terms(k)
				if x == 0 && name != "MulABT" {
					continue
				}
				want += x * y
			}
			if got.At(i, j) != want {
				t.Fatalf("%s width %d (%d,%d): %x, want %x", name, n, i, j, got.At(i, j), want)
			}
		}
		abt, mul, atb := MulABT(a, b, nil), Mul(a, c, nil), MulATB(a, d, nil)
		for i := 0; i < 7; i++ {
			for j := 0; j < 5; j++ {
				check("MulABT", abt, i, j, func(k int) (float64, float64) { return a.At(i, k), b.At(j, k) }, n)
			}
			for j := 0; j < 9; j++ {
				check("Mul", mul, i, j, func(k int) (float64, float64) { return a.At(i, k), c.At(k, j) }, n)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				check("MulATB", atb, i, j, func(r int) (float64, float64) { return a.At(r, i), d.At(r, j) }, 7)
			}
		}
	}
}

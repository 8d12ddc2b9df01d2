package lp

import (
	"math"
	"math/rand"
	"testing"
)

// pivotFullRow is the reference kernel: the textbook dense pivot that
// sweeps every column of every touched row. pivot must match it cell
// for cell.
func pivotFullRow(a [][]float64, b, b2 []float64, basis []int, leave, enter int) {
	n := len(a[leave])
	inv := 1 / a[leave][enter]
	for j := 0; j < n; j++ {
		a[leave][j] *= inv
	}
	b[leave] *= inv
	b2[leave] *= inv
	a[leave][enter] = 1
	for i := range a {
		if i == leave {
			continue
		}
		f := a[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			a[i][j] -= f * a[leave][j]
		}
		a[i][enter] = 0
		b[i] -= f * b[leave]
		b2[i] -= f * b2[leave]
	}
	basis[leave] = enter
}

// standardTableau lays p out exactly as solveRaw does (standardForm):
// free variables split into two columns, a slack per inequality, scaled
// rows signed so the right-hand side is nonnegative, no stored
// artificial columns (a row without a +1 slack has its implicit
// artificial basic), and a perturbed copy b beside the exact b2.
func standardTableau(p *Problem) (a [][]float64, b, b2 []float64, basis []int) {
	t := p.standardForm(&Arena{})
	return t.a, t.b, t.b2, t.basis
}

func cloneTableau(a [][]float64, b, b2 []float64, basis []int) ([][]float64, []float64, []float64, []int) {
	ca := make([][]float64, len(a))
	for i := range a {
		ca[i] = append([]float64(nil), a[i]...)
	}
	return ca, append([]float64(nil), b...), append([]float64(nil), b2...), append([]int(nil), basis...)
}

// TestPivotNonzeroColumns applies one pivot sequence with the
// nonzero-column kernel and with the full-row reference to random
// RLP-shaped tableaux, and requires every cell, both right-hand sides,
// and the basis to compare equal with == after every pivot. It also
// checks that the returned column list is exactly the nonzero pattern
// of the scaled pivot row.
func TestPivotNonzeroColumns(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(30000 + trial)))
		p := buildRandomRLP(rng, 4+rng.Intn(8), 5+rng.Intn(12))
		a, b, b2, basis := standardTableau(p)
		ra, rb, rb2, rbasis := cloneTableau(a, b, b2, basis)
		m, n := len(a), len(a[0])
		nz := make([]int, 0, n)
		for step := 0; step < 2*m; step++ {
			// A random entering column with a usable pivot; the leaving
			// row is its largest-magnitude entry (partial pivoting keeps
			// the sequence numerically tame).
			enter, leave := -1, -1
			for try := 0; try < 4*n && leave < 0; try++ {
				enter = rng.Intn(n)
				best := pivTol
				for i := range a {
					if v := math.Abs(a[i][enter]); v > best {
						best, leave = v, i
					}
				}
			}
			if leave < 0 {
				break
			}
			nz = pivot(a, b, b2, basis, leave, enter, nz)
			pivotFullRow(ra, rb, rb2, rbasis, leave, enter)

			k := 0
			for j, v := range a[leave] {
				if v != 0 {
					if k >= len(nz) || nz[k] != j {
						t.Fatalf("trial %d step %d: nonzero column %d of the pivot row missing from %v", trial, step, j, nz)
					}
					k++
				}
			}
			if k != len(nz) {
				t.Fatalf("trial %d step %d: column list %v has %d entries, pivot row has %d nonzeros", trial, step, nz, len(nz), k)
			}
			for i := range a {
				for j := range a[i] {
					if a[i][j] != ra[i][j] {
						t.Fatalf("trial %d step %d: cell (%d,%d) = %v, reference %v", trial, step, i, j, a[i][j], ra[i][j])
					}
				}
				if b[i] != rb[i] || b2[i] != rb2[i] || basis[i] != rbasis[i] {
					t.Fatalf("trial %d step %d row %d: b=%v b2=%v basis=%d, reference b=%v b2=%v basis=%d",
						trial, step, i, b[i], b2[i], basis[i], rb[i], rb2[i], rbasis[i])
				}
			}
		}
	}
}

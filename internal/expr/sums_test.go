package expr

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/space"
)

// powerSumDenominator[m] is the divisor of powerSum64's closed form:
// S_m(n)·powerSumDenominator[m] is the numerator it multiplies out.
var powerSumDenominator = [maxPowerSum + 1]int64{1, 2, 6, 4, 30, 12, 42}

// TestPowerSumInt64PathMatchesBig checks powerSum64 against the
// math/big closed forms at every n from 1 to each exponent's bound,
// and PowerSum itself at the bound and one past it (the big path).
// It also checks that the numerator fits in int64 at each bound and,
// where the bound is not the 1<<16 cap, that it no longer fits one
// past the bound: the bound is the largest safe n.
func TestPowerSumInt64PathMatchesBig(t *testing.T) {
	maxI64 := big.NewInt(math.MaxInt64)
	numerator := func(m int, n int64) *big.Int {
		r := powerSumBig(m, big.NewInt(n))
		return r.Mul(r, big.NewInt(powerSumDenominator[m]))
	}
	for m := 1; m <= maxPowerSum; m++ {
		bound := powerSumBound[m]
		for n := int64(1); n <= bound; n++ {
			if got, want := powerSum64(m, n), powerSumBig(m, big.NewInt(n)); !want.IsInt64() || got != want.Int64() {
				t.Fatalf("powerSum64(%d, %d) = %d, want %v", m, n, got, want)
			}
		}
		for _, n := range []int64{bound, bound + 1} {
			if got, want := PowerSum(m, n), powerSumBig(m, big.NewInt(n)).Int64(); got != want {
				t.Errorf("PowerSum(%d, %d) = %d, want %d", m, n, got, want)
			}
		}
		if numerator(m, bound).Cmp(maxI64) > 0 {
			t.Errorf("exponent %d: numerator at the bound %d overflows int64", m, bound)
		}
		if bound < 1<<16 && numerator(m, bound+1).Cmp(maxI64) <= 0 {
			t.Errorf("exponent %d: numerator still fits one past the bound %d", m, bound)
		}
	}
}

// randomBox draws a rank-r box of triplets with positive and negative
// steps, empty triplets, and (when far) origins large enough that the
// degree-6 sums wrap int64.
func randomBox(rng *rand.Rand, rank int, far bool) space.Space {
	dims := make([]space.Triplet, rank)
	for k := range dims {
		lo := int64(rng.Intn(61) - 30)
		if far {
			lo *= 100003
		}
		step := int64(1 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			step = -step
		}
		cnt := int64(rng.Intn(7)) // 0 is an empty triplet
		dims[k] = space.Triplet{Lo: lo, Hi: lo + (cnt-1)*step, Step: step}
	}
	return space.NewSpace(dims...)
}

// randomWeight draws a polynomial of up to four monomials over names
// whose degree in each name is at most maxDeg.
func randomWeight(rng *rand.Rand, names []string, maxDeg int) Poly {
	var p Poly
	for n := rng.Intn(4) + 1; n > 0; n-- {
		term := PolyConst(int64(rng.Intn(11) - 5))
		for _, v := range names {
			for e := rng.Intn(maxDeg + 1); e > 0; e-- {
				term = term.Mul(PolyVar(v))
			}
		}
		p = p.Add(term)
	}
	return p
}

// TestSumMomentsMatchesSumOverSpace compares the box path with the
// symbolic sums on random weights over ranks 1–3: every moment must be
// equal bit for bit (wrapped int64 included) whenever each level's
// degree leaves room for its first moment, and SumMoments must decline
// a weight of degree maxPowerSum or one that mentions a variable
// outside the box.
func TestSumMomentsMatchesSumOverSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	allNames := []string{"i", "j", "k"}
	for trial := 0; trial < 3000; trial++ {
		rank := 1 + rng.Intn(3)
		names := allNames[:rank]
		s := randomBox(rng, rank, trial%5 == 0)
		w := randomWeight(rng, names, maxPowerSum-1)
		mv := make([]int64, rank)
		m0, ok := SumMoments(w, names, s, mv)
		if !ok {
			t.Fatalf("trial %d: SumMoments declined %v over %v", trial, w, s)
		}
		want, _ := SumOverSpace(w, names, s).IsConst()
		if m0 != want {
			t.Fatalf("trial %d: M0 of %v over %v = %d, want %d", trial, w, s, m0, want)
		}
		for k, v := range names {
			want, _ := SumOverSpace(w.Mul(PolyVar(v)), names, s).IsConst()
			if mv[k] != want {
				t.Fatalf("trial %d: M_%s of %v over %v = %d, want %d", trial, v, w, s, mv[k], want)
			}
		}
	}
	s := randomBox(rng, 2, false)
	names := allNames[:2]
	mv := make([]int64, 2)
	top := PolyVar("i")
	for e := 1; e < maxPowerSum; e++ {
		top = top.Mul(PolyVar("i"))
	}
	for _, w := range []Poly{top, PolyVar("n").Mul(PolyVar("j"))} {
		if _, ok := SumMoments(w, names, s, mv); ok {
			t.Errorf("SumMoments accepted %v over %v", w, s)
		}
	}
	if _, ok := SumMoments(PolyVar("i"), []string{"i", "i"}, s, mv); ok {
		t.Errorf("SumMoments accepted a repeated level name")
	}
}

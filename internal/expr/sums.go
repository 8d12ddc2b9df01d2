package expr

import (
	"fmt"
	"math/big"

	"repro/internal/space"
)

// maxPowerSum is the largest exponent for which a closed-form power sum
// is provided. Degree-6 sums cover weight·span products far beyond what
// the paper's cost model (affine weight × affine span) requires.
const maxPowerSum = 6

// powerSumBound[m] is the largest n for which powerSum64 computes
// S_m(n): the largest n at which the closed form's numerator (the
// product it divides at the end) fits in int64, capped at 1<<16 so a
// test can check every n up to each bound against the big-integer
// path. S_0(n) = n needs no bound.
var powerSumBound = [maxPowerSum + 1]int64{0, 1 << 16, 1 << 16, 55109, 4339, 1290, 396}

// PowerSum returns S_m(n) = Σ_{j=0}^{n-1} j^m exactly. It panics if
// m > maxPowerSum or the result overflows int64. Up to powerSumBound[m]
// it computes in int64 (no intermediate can overflow there); beyond, in
// math/big.
func PowerSum(m int, n int64) int64 {
	if m < 0 || m > maxPowerSum {
		panic(fmt.Sprintf("expr: PowerSum exponent %d out of range", m))
	}
	if n <= 0 {
		return 0
	}
	if m == 0 || n <= powerSumBound[m] {
		return powerSum64(m, n)
	}
	N := big.NewInt(n)
	r := powerSumBig(m, N)
	if !r.IsInt64() {
		panic(fmt.Sprintf("expr: PowerSum(%d, %d) overflows int64", m, n))
	}
	return r.Int64()
}

// powerSum64 is powerSumBig's closed forms in int64, for 1 ≤ n ≤
// powerSumBound[m]: every partial product is at most the numerator, so
// nothing overflows, and each division is exact.
func powerSum64(m int, n int64) int64 {
	nm1 := n - 1
	switch m {
	case 0:
		return n
	case 1:
		return n * nm1 / 2
	case 2:
		return n * nm1 * (2*n - 1) / 6
	case 3:
		return n * n * nm1 * nm1 / 4
	case 4:
		return n * nm1 * (2*n - 1) * (3*n*n - 3*n - 1) / 30
	case 5:
		return n * n * nm1 * nm1 * (2*n*n - 2*n - 1) / 12
	case 6:
		return n * nm1 * (2*n - 1) * (((3*n-6)*n*n+3)*n + 1) / 42
	}
	panic("unreachable")
}

// powerSumBig computes Σ_{j=0}^{n-1} j^m with Faulhaber closed forms.
func powerSumBig(m int, n *big.Int) *big.Int {
	one := big.NewInt(1)
	nm1 := new(big.Int).Sub(n, one) // n-1
	mul := func(xs ...*big.Int) *big.Int {
		r := big.NewInt(1)
		for _, x := range xs {
			r.Mul(r, x)
		}
		return r
	}
	div := func(x *big.Int, d int64) *big.Int {
		q, r := new(big.Int).QuoRem(x, big.NewInt(d), new(big.Int))
		if r.Sign() != 0 {
			panic("expr: power-sum closed form not integral")
		}
		return q
	}
	n2 := new(big.Int).Mul(n, n)
	twoN := new(big.Int).Lsh(n, 1)
	twoNm1 := new(big.Int).Sub(twoN, one) // 2n-1
	switch m {
	case 0:
		return new(big.Int).Set(n)
	case 1:
		return div(mul(n, nm1), 2)
	case 2:
		return div(mul(n, nm1, twoNm1), 6)
	case 3:
		return div(mul(n, n, nm1, nm1), 4)
	case 4:
		// n(n-1)(2n-1)(3n²-3n-1)/30
		t := new(big.Int).Sub(new(big.Int).Mul(big.NewInt(3), n2), new(big.Int).Mul(big.NewInt(3), n))
		t.Sub(t, one)
		return div(mul(n, nm1, twoNm1, t), 30)
	case 5:
		// n²(n-1)²(2n²-2n-1)/12
		t := new(big.Int).Sub(new(big.Int).Mul(big.NewInt(2), n2), new(big.Int).Mul(big.NewInt(2), n))
		t.Sub(t, one)
		return div(mul(n, n, nm1, nm1, t), 12)
	case 6:
		// n(n-1)(2n-1)(3n⁴-6n³+3n+1)/42
		n3 := new(big.Int).Mul(n2, n)
		n4 := new(big.Int).Mul(n2, n2)
		t := new(big.Int).Mul(big.NewInt(3), n4)
		t.Sub(t, new(big.Int).Mul(big.NewInt(6), n3))
		t.Add(t, new(big.Int).Mul(big.NewInt(3), n))
		t.Add(t, one)
		return div(mul(n, nm1, twoNm1, t), 42)
	}
	panic("unreachable")
}

// Sigma0 is σ0 = Σ_{i∈l:h:s} 1, the paper's closed form (h-l+s)/s for the
// element count (§4.3), computed robustly for any triplet.
func Sigma0(t space.Triplet) int64 { return t.Count() }

// Sigma1 is σ1 = Σ_{i∈l:h:s} i.
func Sigma1(t space.Triplet) int64 {
	n := t.Count()
	return t.Lo*n + t.Step*PowerSum(1, n)
}

// Sigma2 is σ2 = Σ_{i∈l:h:s} i².
func Sigma2(t space.Triplet) int64 {
	n := t.Count()
	return t.Lo*t.Lo*n + 2*t.Lo*t.Step*PowerSum(1, n) + t.Step*t.Step*PowerSum(2, n)
}

// SumOverTriplet symbolically sums p over the named variable ranging over
// triplet t, returning a polynomial in the remaining variables. It
// implements the paper's closed-form evaluation of polynomial weights
// (§3, §4.3) for arbitrary degree up to maxPowerSum.
func SumOverTriplet(p Poly, name string, t space.Triplet) Poly {
	n := t.Count()
	if n == 0 {
		return Poly{}
	}
	// Substitute i = lo + step·j, then sum each power of j in closed form.
	sub := PolyConst(t.Lo).Add(PolyVar("__j").ScaleInt(t.Step))
	q := p.Subst(name, sub)
	ms := make([]Mono, 0, len(q.monos))
	for _, m := range q.monos {
		jexp := 0
		rest := Mono{Coef: m.Coef}
		for _, pw := range m.Pows {
			if pw.Var == "__j" {
				jexp = pw.Exp
			} else {
				rest.Pows = append(rest.Pows, pw)
			}
		}
		rest.Coef *= PowerSum(jexp, n)
		ms = append(ms, rest)
	}
	return normalize(ms)
}

// SumOverSpace sums p over the whole iteration space, innermost variable
// last in names. names[k] is the LIV of space level k. The result is a
// constant (all variables eliminated) unless p mentions other variables.
func SumOverSpace(p Poly, names []string, s space.Space) Poly {
	if len(names) != s.Rank() {
		panic("expr: SumOverSpace name/rank mismatch")
	}
	q := p
	for k := s.Rank() - 1; k >= 0; k-- {
		q = SumOverTriplet(q, names[k], s.Dim(k))
	}
	return q
}

// maxBoxRank is the largest iteration-space rank SumMoments handles;
// deeper nests go through SumOverSpace.
const maxBoxRank = 8

// binom[e][r] is the binomial coefficient C(e, r) for e ≤ maxPowerSum.
var binom = func() (c [maxPowerSum + 1][maxPowerSum + 1]int64) {
	for e := range c {
		c[e][0] = 1
		for r := 1; r <= e; r++ {
			c[e][r] = c[e-1][r-1] + c[e-1][r]
		}
	}
	return c
}()

// SumMoments returns the moments of p over the box s: M0 = Σ_{i∈s} p(i)
// and, for every level k, mv[k] = Σ_{i∈s} p(i)·i_k, where names[k]
// names level k's variable (mv must have length s.Rank()). A box sum
// factors per monomial into per-level power sums
// Σ_{j<n} (lo + step·j)^e = Σ_r C(e,r)·lo^(e−r)·step^r·S_r(n), so no
// polynomial is built. The arithmetic is int64 ring arithmetic on exact
// power sums, the same ring SumOverSpace computes in, so the results
// equal its (wrapping) results bit for bit.
//
// ok is false, and mv is left unspecified, when p mentions a variable
// outside names or names repeats one, a level needs an exponent above
// maxPowerSum or a count above that exponent's int64 power-sum bound,
// or the rank exceeds maxBoxRank: SumOverSpace (with its big-integer
// path and overflow panic) answers those.
func SumMoments(p Poly, names []string, s space.Space, mv []int64) (m0 int64, ok bool) {
	rank := s.Rank()
	if len(names) != rank || len(mv) != rank || rank > maxBoxRank {
		return 0, false
	}
	for k, n := range names {
		if indexOf(names[:k], n) >= 0 {
			return 0, false // a repeated name: SumOverSpace sums it innermost
		}
	}
	// deg[k] is the degree of p in names[k]; the first moment of level
	// k needs one more.
	var deg [maxBoxRank]int
	for _, m := range p.monos {
		for _, pw := range m.Pows {
			k := indexOf(names, pw.Var)
			if k < 0 {
				return 0, false
			}
			if pw.Exp > deg[k] {
				deg[k] = pw.Exp
			}
		}
	}
	// sums[k][e] = Σ_{i∈dim k} i^e for e ≤ deg[k]+1.
	var sums [maxBoxRank][maxPowerSum + 1]int64
	for k := 0; k < rank; k++ {
		t := s.Dim(k)
		top := deg[k] + 1
		n := t.Count()
		if top > maxPowerSum || n > powerSumBound[top] {
			return 0, false
		}
		var ps [maxPowerSum + 1]int64
		for r := 0; r <= top; r++ {
			ps[r] = PowerSum(r, n)
		}
		for e := 0; e <= top; e++ {
			// Σ_{j<n} (lo + step·j)^e = Σ_r C(e,r)·lo^(e−r)·step^r·S_r(n).
			// powerSumBound falls with the exponent, so every S_r(n)
			// here takes PowerSum's int64 path.
			var v int64
			stepPow := int64(1)
			for r := 0; r <= e; r++ {
				loPow := int64(1)
				for q := 0; q < e-r; q++ {
					loPow *= t.Lo
				}
				v += binom[e][r] * loPow * stepPow * ps[r]
				stepPow *= t.Step
			}
			sums[k][e] = v
		}
	}
	for k := range mv {
		mv[k] = 0
	}
	var exp [maxBoxRank]int
	for _, m := range p.monos {
		for k := 0; k < rank; k++ {
			exp[k] = 0
		}
		for _, pw := range m.Pows {
			exp[indexOf(names, pw.Var)] = pw.Exp
		}
		term := m.Coef
		for k := 0; k < rank; k++ {
			term *= sums[k][exp[k]]
		}
		m0 += term
		for v := 0; v < rank; v++ {
			t := m.Coef
			for k := 0; k < rank; k++ {
				e := exp[k]
				if k == v {
					e++
				}
				t *= sums[k][e]
			}
			mv[v] += t
		}
	}
	return m0, true
}

func indexOf(names []string, v string) int {
	for k, n := range names {
		if n == v {
			return k
		}
	}
	return -1
}

// SumAbsAffineOverTriplet computes Σ_{i∈t} w(i)·|a(i)| exactly, where w
// and a are affine in the single variable name. It splits the triplet at
// the zero crossing of a, so the result is exact — this is the reference
// against which the paper's subrange approximation (§4.2) is judged.
func SumAbsAffineOverTriplet(w, a Affine, name string, t space.Triplet) int64 {
	parts := SplitAtZeroCrossing(a, name, t)
	total := int64(0)
	for _, part := range parts {
		v := sumAffineProduct(w, a, name, part)
		if v < 0 {
			v = -v
		}
		total += v
	}
	return total
}

// sumAffineProduct computes Σ_{i∈t} w(i)·a(i) in closed form.
func sumAffineProduct(w, a Affine, name string, t space.Triplet) int64 {
	p := w.Poly().Mul(a.Poly())
	r := SumOverTriplet(p, name, t)
	c, ok := r.IsConst()
	if !ok {
		panic("expr: sumAffineProduct with free variables: " + r.String())
	}
	return c
}

// SplitAtZeroCrossing splits triplet t into at most two subranges such
// that the affine form a (in variable name) does not change sign within
// either (treating 0 as nonnegative). If a never changes sign over t, a
// single subrange is returned.
func SplitAtZeroCrossing(a Affine, name string, t space.Triplet) []space.Triplet {
	if t.Empty() {
		return nil
	}
	if a.Coef(name) == 0 {
		return []space.Triplet{t.Normalize()}
	}
	cut := firstFlip(a.ConstPart(), a.Coef(name), t)
	if cut < 0 { // no flip within range
		return []space.Triplet{t.Normalize()}
	}
	before, after := t.SplitAtIndex(cut)
	return []space.Triplet{before, after}
}

// firstFlip returns the 0-based iteration index of the first element whose
// strict sign (treating 0 as nonnegative) differs from the first element's,
// or -1 if no flip occurs. Binary search over the monotone affine form.
func firstFlip(a0, a1 int64, t space.Triplet) int64 {
	n := t.Count()
	val := func(k int64) int64 { return a0 + a1*t.At(k) }
	neg0 := val(0) < 0
	if (val(n-1) < 0) == neg0 {
		return -1
	}
	lo, hi := int64(1), n-1 // invariant: flip index in (lo-1, hi]
	for lo < hi {
		mid := (lo + hi) / 2
		if (val(mid) < 0) != neg0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

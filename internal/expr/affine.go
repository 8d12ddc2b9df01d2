// Package expr provides the symbolic machinery of the alignment analysis:
// affine forms in loop induction variables (the shape §2.4 of the paper
// restricts mobile alignments to), multivariate polynomials (data weights,
// §2.3), and closed-form sums of polynomials over index triplets
// (σ0, σ1, σ2 of §4.3).
package expr

import (
	"fmt"
	"strings"
)

// Affine is an affine form a0 + a1·x1 + ... + ak·xk over named integer
// variables (loop induction variables). The zero value is the constant 0.
// Affine values are immutable; all operations return new values.
type Affine struct {
	c     int64
	terms []Term // sorted by Var, no zero coefficients, no duplicates
}

// Term is one linear term Coef·Var of an affine form.
type Term struct {
	Var  string
	Coef int64
}

// Const returns the constant affine form c.
func Const(c int64) Affine { return Affine{c: c} }

// Var returns the affine form 1·name.
func Var(name string) Affine { return Axpy(1, name, 0) }

// Axpy returns the affine form coef·name + c.
func Axpy(coef int64, name string, c int64) Affine {
	if coef == 0 {
		return Affine{c: c}
	}
	return Affine{c: c, terms: []Term{{Var: name, Coef: coef}}}
}

// NewAffine builds an affine form from a constant and a coefficient map.
func NewAffine(c int64, coefs map[string]int64) Affine {
	terms := make([]Term, 0, len(coefs))
	for v, k := range coefs {
		if k != 0 {
			terms = append(terms, Term{Var: v, Coef: k})
		}
	}
	return FromTerms(c, terms)
}

// FromTerms builds the affine form c + Σ terms. The terms must name
// distinct variables with nonzero coefficients, in any order; FromTerms
// sorts them in place and keeps the slice.
func FromTerms(c int64, terms []Term) Affine {
	if len(terms) == 0 {
		return Affine{c: c}
	}
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && terms[j].Var < terms[j-1].Var; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	return Affine{c: c, terms: terms}
}

// ConstPart returns the constant term a0.
func (a Affine) ConstPart() int64 { return a.c }

// Coef returns the coefficient of the named variable (0 if absent).
func (a Affine) Coef(name string) int64 {
	for _, t := range a.terms {
		if t.Var == name {
			return t.Coef
		}
	}
	return 0
}

// Terms returns a copy of the linear terms, sorted by variable name.
func (a Affine) Terms() []Term {
	cp := make([]Term, len(a.terms))
	copy(cp, a.terms)
	return cp
}

// EachTerm calls f for each linear term in variable order, stopping early
// if f returns false. Unlike Terms it does not allocate, which matters to
// callers on hot paths (label interning, candidate propagation).
func (a Affine) EachTerm(f func(Term) bool) {
	for _, t := range a.terms {
		if !f(t) {
			return
		}
	}
}

// Vars returns the variables with nonzero coefficients, sorted.
func (a Affine) Vars() []string {
	vs := make([]string, len(a.terms))
	for i, t := range a.terms {
		vs[i] = t.Var
	}
	return vs
}

// IsConst reports whether the form has no linear terms.
func (a Affine) IsConst() bool { return len(a.terms) == 0 }

// IsZero reports whether the form is identically zero.
func (a Affine) IsZero() bool { return a.c == 0 && len(a.terms) == 0 }

// Add returns a + b.
func (a Affine) Add(b Affine) Affine {
	out := Affine{c: a.c + b.c}
	out.terms = mergeTerms(a.terms, b.terms, 1)
	return out
}

// Sub returns a - b.
func (a Affine) Sub(b Affine) Affine {
	out := Affine{c: a.c - b.c}
	out.terms = mergeTerms(a.terms, b.terms, -1)
	return out
}

// AddConst returns a + c.
func (a Affine) AddConst(c int64) Affine {
	return Affine{c: a.c + c, terms: a.terms}
}

// Scale returns k·a.
func (a Affine) Scale(k int64) Affine {
	if k == 0 {
		return Affine{}
	}
	out := Affine{c: a.c * k, terms: make([]Term, len(a.terms))}
	for i, t := range a.terms {
		out.terms[i] = Term{Var: t.Var, Coef: t.Coef * k}
	}
	return out
}

// Neg returns -a.
func (a Affine) Neg() Affine { return a.Scale(-1) }

func mergeTerms(x, y []Term, sign int64) []Term {
	out := make([]Term, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j == len(y) || (i < len(x) && x[i].Var < y[j].Var):
			out = append(out, x[i])
			i++
		case i == len(x) || y[j].Var < x[i].Var:
			out = append(out, Term{Var: y[j].Var, Coef: sign * y[j].Coef})
			j++
		default:
			c := x[i].Coef + sign*y[j].Coef
			if c != 0 {
				out = append(out, Term{Var: x[i].Var, Coef: c})
			}
			i++
			j++
		}
	}
	return out
}

// Eval evaluates the form under the given variable assignment. Variables
// missing from env evaluate as 0.
func (a Affine) Eval(env map[string]int64) int64 {
	v := a.c
	for _, t := range a.terms {
		v += t.Coef * env[t.Var]
	}
	return v
}

// Subst replaces the named variable with the affine form r.
func (a Affine) Subst(name string, r Affine) Affine {
	k := a.Coef(name)
	if k == 0 {
		return a
	}
	out := Affine{c: a.c}
	for _, t := range a.terms {
		if t.Var != name {
			out.terms = append(out.terms, t)
		}
	}
	return out.Add(r.Scale(k))
}

// Equal reports structural equality (same constant and coefficients).
func (a Affine) Equal(b Affine) bool {
	if a.c != b.c || len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			return false
		}
	}
	return true
}

// Compare imposes a total order on affine forms (for canonical sorting in
// dynamic-programming tables): first by terms lexicographically, then by
// constant.
func (a Affine) Compare(b Affine) int {
	for i := 0; i < len(a.terms) && i < len(b.terms); i++ {
		if a.terms[i].Var != b.terms[i].Var {
			if a.terms[i].Var < b.terms[i].Var {
				return -1
			}
			return 1
		}
		if a.terms[i].Coef != b.terms[i].Coef {
			if a.terms[i].Coef < b.terms[i].Coef {
				return -1
			}
			return 1
		}
	}
	if len(a.terms) != len(b.terms) {
		if len(a.terms) < len(b.terms) {
			return -1
		}
		return 1
	}
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}

// Key returns a canonical string usable as a map key.
func (a Affine) Key() string { return a.String() }

// Poly lifts the affine form to a polynomial.
func (a Affine) Poly() Poly {
	p := PolyConst(a.c)
	for _, t := range a.terms {
		p = p.Add(PolyVar(t.Var).ScaleInt(t.Coef))
	}
	return p
}

// String renders the form, e.g. "2k - 3" or "0".
func (a Affine) String() string {
	var b strings.Builder
	wrote := false
	for _, t := range a.terms {
		switch {
		case !wrote && t.Coef == 1:
			fmt.Fprintf(&b, "%s", t.Var)
		case !wrote && t.Coef == -1:
			fmt.Fprintf(&b, "-%s", t.Var)
		case !wrote:
			fmt.Fprintf(&b, "%d%s", t.Coef, t.Var)
		case t.Coef == 1:
			fmt.Fprintf(&b, " + %s", t.Var)
		case t.Coef == -1:
			fmt.Fprintf(&b, " - %s", t.Var)
		case t.Coef > 0:
			fmt.Fprintf(&b, " + %d%s", t.Coef, t.Var)
		default:
			fmt.Fprintf(&b, " - %d%s", -t.Coef, t.Var)
		}
		wrote = true
	}
	if !wrote {
		return fmt.Sprintf("%d", a.c)
	}
	if a.c > 0 {
		fmt.Fprintf(&b, " + %d", a.c)
	} else if a.c < 0 {
		fmt.Fprintf(&b, " - %d", -a.c)
	}
	return b.String()
}

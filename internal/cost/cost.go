// Package cost evaluates the realignment communication cost of an
// alignment assignment on an ADG, per the model of §2.3: the cost of an
// edge is the data weight times the distance between its two port
// positions, summed over the edge's iteration space. Axis and stride
// mismatches are charged under the discrete metric (general
// communication); offset mismatches under the grid metric (shifts);
// edges into replicated ports are broadcasts.
package cost

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adg"
	"repro/internal/expr"
	"repro/internal/space"
)

// Breakdown decomposes the total realignment cost of a program.
type Breakdown struct {
	// General is the element volume moved by general communication
	// (axis or stride mismatch; discrete metric × weight).
	General int64
	// GeneralEvents counts edge-iterations incurring general
	// communication (the paper's "general communications per iteration").
	GeneralEvents int64
	// Shift is the weighted grid-metric (L1) offset distance.
	Shift int64
	// ShiftEvents counts edge-iterations with a nonzero offset shift.
	ShiftEvents int64
	// Broadcast is the element volume sent into replicated ports from
	// non-replicated ports.
	Broadcast int64
	// BroadcastEvents counts edge-iterations incurring a broadcast.
	BroadcastEvents int64
}

// Total returns a single scalar summary: element·hops of shift plus
// element volume of general and broadcast communication.
func (b Breakdown) Total() int64 { return b.General + b.Shift + b.Broadcast }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.General += o.General
	b.GeneralEvents += o.GeneralEvents
	b.Shift += o.Shift
	b.ShiftEvents += o.ShiftEvents
	b.Broadcast += o.Broadcast
	b.BroadcastEvents += o.BroadcastEvents
}

func (b Breakdown) String() string {
	return fmt.Sprintf("general=%d (%d events), shift=%d (%d events), broadcast=%d (%d events), total=%d",
		b.General, b.GeneralEvents, b.Shift, b.ShiftEvents,
		b.Broadcast, b.BroadcastEvents, b.Total())
}

// Exact evaluates the full program cost of an assignment by enumerating
// every edge's iteration space.
func Exact(g *adg.Graph, asg *adg.Assignment) Breakdown {
	var total Breakdown
	for _, e := range g.Edges {
		total.Add(EdgeCost(e, asg))
	}
	return total
}

// EdgeCost evaluates one edge's cost contribution, scaled by the edge's
// §6 control weight (expected executions of conditional arms).
func EdgeCost(e *adg.Edge, asg *adg.Assignment) Breakdown {
	src := asg.Of(e.Src)
	dst := asg.Of(e.Dst)
	sp := e.Space()
	ev := edgeEval{slotOf: make([]int, sp.Rank())}
	for k, liv := range sp.LIVs {
		ev.slotOf[k] = ev.slot(liv)
	}
	ev.lo = ev.affines(sp.Lo)
	ev.hi = ev.affines(sp.Hi)
	ev.step = ev.affines(sp.Step)
	ev.weight = ev.poly(e.Weight())
	scale := func(v int64) int64 {
		if e.Control == 1 {
			return v
		}
		return int64(e.Control * float64(v))
	}

	// Replication: tail replicated covers any head; head replicated
	// with non-replicated tail is a broadcast (§5.1).
	bcast := false
	for t := range dst.Replicated {
		if dst.Replicated[t] && !src.Replicated[t] {
			bcast = true
		}
	}
	// Axis/stride mismatch is general communication: a differing axis
	// map always, differing strides wherever they evaluate apart.
	general := len(src.AxisMap) != len(dst.AxisMap)
	var strides [][2]linForm
	for d := range src.AxisMap {
		if general {
			break
		}
		if src.AxisMap[d] != dst.AxisMap[d] {
			general = true
		} else if !src.Stride[d].Equal(dst.Stride[d]) {
			strides = append(strides, [2]linForm{ev.affine(src.Stride[d]), ev.affine(dst.Stride[d])})
		}
	}
	var offsets [][2]linForm
	for t := range src.Offset {
		if !src.Replicated[t] && !dst.Replicated[t] {
			offsets = append(offsets, [2]linForm{ev.affine(src.Offset[t]), ev.affine(dst.Offset[t])})
		}
	}

	var b Breakdown
	x := make([]int64, len(ev.names))
	ev.each(x, 0, func() {
		wt := ev.weight.eval(x)
		if wt == 0 {
			return
		}
		if bcast {
			b.Broadcast += scale(wt)
			b.BroadcastEvents++
			return
		}
		mismatch := general
		for _, f := range strides {
			if f[0].eval(x) != f[1].eval(x) {
				mismatch = true
			}
		}
		if mismatch {
			b.General += scale(wt)
			b.GeneralEvents++
			return
		}
		var d int64
		for _, f := range offsets {
			diff := f[0].eval(x) - f[1].eval(x)
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		if d > 0 {
			b.Shift += scale(wt * d)
			b.ShiftEvents++
		}
	})
	return b
}

// edgeEval enumerates an edge's iteration space the way
// adg.IterSpace.Each does, but keeps the environment in a slice: one
// slot per distinct loop-variable name, 0 while that variable is unset
// (Each deletes a level's variable once its loop ends, and Eval reads a
// missing variable as 0). The cost terms are compiled against the
// slots, so evaluating them reads no map. Every value is computed with
// the same int64 operations Eval performs.
type edgeEval struct {
	names        []string // slot → loop-variable name
	slotOf       []int    // level → slot
	lo, hi, step []linForm
	weight       polyForm
}

// slot returns the slot of name, adding one if it has none.
func (ev *edgeEval) slot(name string) int {
	if s := ev.lookup(name); s >= 0 {
		return s
	}
	ev.names = append(ev.names, name)
	return len(ev.names) - 1
}

// lookup returns the slot of name, or -1 for a variable that is no
// loop variable (which Eval would read as 0).
func (ev *edgeEval) lookup(name string) int {
	for s, n := range ev.names {
		if n == name {
			return s
		}
	}
	return -1
}

// linForm is an affine form compiled against the slots: c + Σ
// coefs[k]·x[slots[k]].
type linForm struct {
	c     int64
	slots []int
	coefs []int64
}

func (f *linForm) eval(x []int64) int64 {
	v := f.c
	for k, s := range f.slots {
		v += f.coefs[k] * x[s]
	}
	return v
}

// affine compiles a; a term in a variable with no slot contributes 0.
func (ev *edgeEval) affine(a expr.Affine) linForm {
	f := linForm{c: a.ConstPart()}
	a.EachTerm(func(t expr.Term) bool {
		if s := ev.lookup(t.Var); s >= 0 {
			f.slots = append(f.slots, s)
			f.coefs = append(f.coefs, t.Coef)
		}
		return true
	})
	return f
}

func (ev *edgeEval) affines(as []expr.Affine) []linForm {
	fs := make([]linForm, len(as))
	for k, a := range as {
		fs[k] = ev.affine(a)
	}
	return fs
}

// polyForm is a polynomial compiled against the slots: per monomial a
// coefficient and the slot of each factor, repeated by its exponent.
type polyForm struct {
	coefs   []int64
	factors [][]int
}

func (f *polyForm) eval(x []int64) int64 {
	total := int64(0)
	for m, c := range f.coefs {
		v := c
		for _, s := range f.factors[m] {
			v *= x[s]
		}
		total += v
	}
	return total
}

// poly compiles p; a monomial with a factor in a variable that has no
// slot evaluates to 0 and is dropped.
func (ev *edgeEval) poly(p expr.Poly) polyForm {
	var f polyForm
next:
	for _, m := range p.Monomials() {
		var fac []int
		for _, pw := range m.Pows {
			s := ev.lookup(pw.Var)
			if s < 0 {
				continue next
			}
			for e := 0; e < pw.Exp; e++ {
				fac = append(fac, s)
			}
		}
		f.coefs = append(f.coefs, m.Coef)
		f.factors = append(f.factors, fac)
	}
	return f
}

// each calls visit at every point of the space from level k on, with x
// holding the point.
func (ev *edgeEval) each(x []int64, k int, visit func()) {
	if k == len(ev.slotOf) {
		visit()
		return
	}
	t := space.NewTriplet(ev.lo[k].eval(x), ev.hi[k].eval(x), ev.step[k].eval(x))
	n := t.Count()
	s := ev.slotOf[k]
	for j := int64(0); j < n; j++ {
		x[s] = t.At(j)
		ev.each(x, k+1, visit)
	}
	x[s] = 0
}

// Report renders a per-edge cost table for the costliest edges.
func Report(g *adg.Graph, asg *adg.Assignment, top int) string {
	type row struct {
		e *adg.Edge
		b Breakdown
	}
	rows := make([]row, 0, len(g.Edges))
	for _, e := range g.Edges {
		b := EdgeCost(e, asg)
		if b.Total() > 0 {
			rows = append(rows, row{e, b})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].b.Total() > rows[j].b.Total() })
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-30s %-30s %s\n", "edge", "from", "to", "cost")
	for _, r := range rows {
		from := fmt.Sprintf("%s %q", r.e.Src.Node.Kind, r.e.Src.Node.Label)
		to := fmt.Sprintf("%s %q", r.e.Dst.Node.Kind, r.e.Dst.Node.Label)
		fmt.Fprintf(&sb, "e%-5d %-30s %-30s %s\n", r.e.ID, from, to, r.b)
	}
	return sb.String()
}

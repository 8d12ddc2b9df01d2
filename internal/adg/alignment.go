package adg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Alignment is the alignment of one object (at one port) to the template:
// the three components of §2 — axis, stride, offset — plus the §5
// replication labels, all possibly mobile (affine in LIVs).
type Alignment struct {
	// AxisMap[d] is the template axis that body axis d (0-based) maps to.
	AxisMap []int
	// Stride[d] is the spacing of elements of body axis d along its
	// template axis: g_t(i) = Stride[d]·i_d + Offset[axis].
	Stride []expr.Affine
	// Offset[t] is the position of the array origin along template axis
	// t. For a body axis it combines with the stride; for a space axis it
	// is the object's full position on that axis.
	Offset []expr.Affine
	// Replicated[t] reports a replicated (one-to-many) offset on template
	// axis t. Only space axes may be replicated (§5).
	Replicated []bool
}

// NewAlignment returns the identity alignment of a rank-r object in a
// rank-t template: body axis d on template axis d, stride 1, offset 0,
// no replication.
func NewAlignment(r, t int) Alignment {
	a := Alignment{
		AxisMap:    make([]int, r),
		Stride:     make([]expr.Affine, r),
		Offset:     make([]expr.Affine, t),
		Replicated: make([]bool, t),
	}
	for d := 0; d < r; d++ {
		a.AxisMap[d] = d
		a.Stride[d] = expr.Const(1)
	}
	for t2 := range a.Offset {
		a.Offset[t2] = expr.Const(0)
	}
	return a
}

// Clone returns a deep copy.
func (a Alignment) Clone() Alignment {
	out := Alignment{
		AxisMap:    append([]int{}, a.AxisMap...),
		Stride:     append([]expr.Affine{}, a.Stride...),
		Offset:     append([]expr.Affine{}, a.Offset...),
		Replicated: append([]bool{}, a.Replicated...),
	}
	return out
}

// BodyAxis reports whether template axis t is a body axis of the object
// (some array axis maps to it) and which array axis that is.
func (a Alignment) BodyAxis(t int) (int, bool) {
	for d, ta := range a.AxisMap {
		if ta == t {
			return d, true
		}
	}
	return -1, false
}

// IsMobile reports whether any component of the alignment depends on a
// loop induction variable.
func (a Alignment) IsMobile() bool {
	for _, s := range a.Stride {
		if !s.IsConst() {
			return true
		}
	}
	for _, o := range a.Offset {
		if !o.IsConst() {
			return true
		}
	}
	return false
}

// Position evaluates the template position of element index (0-based
// per-dimension indices idx) under LIV environment env. Replicated axes
// report the offset of the start of the replication set.
func (a Alignment) Position(idx []int64, env map[string]int64) []int64 {
	pos := make([]int64, len(a.Offset))
	for t := range a.Offset {
		pos[t] = a.Offset[t].Eval(env)
	}
	for d, t := range a.AxisMap {
		pos[t] += a.Stride[d].Eval(env) * idx[d]
	}
	return pos
}

// String renders the alignment in the paper's notation, e.g.
// "(i1,i2) ↦ [k, i1 - k + 1]" with "*" marking replicated axes.
func (a Alignment) String() string {
	axes := make([]string, len(a.Offset))
	for t := range a.Offset {
		if d, ok := a.BodyAxis(t); ok {
			term := ""
			s := a.Stride[d]
			iv := fmt.Sprintf("i%d", d+1)
			switch {
			case s.IsConst() && s.ConstPart() == 1:
				term = iv
			case s.IsConst():
				term = fmt.Sprintf("%d%s", s.ConstPart(), iv)
			default:
				term = fmt.Sprintf("(%s)%s", s, iv)
			}
			if !a.Offset[t].IsZero() {
				off := a.Offset[t].String()
				if strings.HasPrefix(off, "-") {
					term += " - " + off[1:]
				} else {
					term += " + " + off
				}
			}
			axes[t] = term
		} else if a.Replicated[t] {
			axes[t] = "*"
		} else {
			axes[t] = a.Offset[t].String()
		}
	}
	return "[" + strings.Join(axes, ", ") + "]"
}

// Assignment maps every port of a graph to its alignment: the π of the
// cost model (1).
type Assignment struct {
	g     *Graph
	align []Alignment // by port ID
}

// NewAssignment returns an assignment giving every port the identity
// alignment for its rank.
func NewAssignment(g *Graph) *Assignment {
	return NewAssignmentFunc(g, func(p *Port) Alignment { return NewAlignment(p.Rank, g.TemplateRank) })
}

// NewAssignmentFunc returns an assignment giving every port p the
// alignment of(p).
func NewAssignmentFunc(g *Graph, of func(p *Port) Alignment) *Assignment {
	as := &Assignment{g: g, align: make([]Alignment, len(g.Ports))}
	for _, p := range g.Ports {
		as.align[p.ID] = of(p)
	}
	return as
}

// Graph returns the graph this assignment labels.
func (as *Assignment) Graph() *Graph { return as.g }

// Of returns the alignment of port p.
func (as *Assignment) Of(p *Port) Alignment { return as.align[p.ID] }

// Set replaces the alignment of port p.
func (as *Assignment) Set(p *Port, a Alignment) { as.align[p.ID] = a }

// Clone returns a deep copy of the assignment.
func (as *Assignment) Clone() *Assignment {
	out := &Assignment{g: as.g, align: make([]Alignment, len(as.align))}
	for id, a := range as.align {
		out.align[id] = a.Clone()
	}
	return out
}

// String renders one line per node with the alignments of its ports.
func (as *Assignment) String() string {
	var b strings.Builder
	ids := make([]int, 0, len(as.g.Nodes))
	for _, n := range as.g.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n := as.g.Nodes[id]
		fmt.Fprintf(&b, "%s %q:", n.Kind, n.Label)
		for _, p := range n.In {
			fmt.Fprintf(&b, " in%d=%s", p.Index, as.align[p.ID])
		}
		for _, p := range n.Out {
			fmt.Fprintf(&b, " out%d=%s", p.Index, as.align[p.ID])
		}
		b.WriteString("\n")
	}
	return b.String()
}

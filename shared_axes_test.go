package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/lp"
)

// rank4Offsets is every port's offset on the four axes of rank4Src, as
// "port:axis0,axis1,axis2,axis3", in port order. It is the answer of
// every round of TestSharedAxesDiverge, recorded before axes shared
// their solves.
const rank4Offsets = `
0:0,0,0,0 1:-1,-1,-1,-1 2:1,1,1,1 3:0,0,0,0 4:0,0,0,0 5:0,0,0,0
6:0,0,0,0 7:0,0,0,0 8:-1,-1,-1,-1 9:-1,-1,-1,-1 10:-1,-1,-1,-1 11:-1,-1,-1,-1
12:-1,-1,-1,-1 13:1,1,1,1 14:1,1,1,1 15:1,1,1,1 16:1,1,1,1 17:1,1,1,1
18:0,0,0,0 19:k - 1,k - 1,k - 1,k - 1 20:-1,-1,-1,-1 21:k - 1,k - 1,k - 1,k - 1 22:k - 1,k - 1,k - 1,k - 1 23:k - 1,k - 1,k - 1,k - 1
24:k - 1,k - 1,k - 1,k - 1 25:0,0,0,0 26:k - 1,k - 1,k - 1,k - 1 27:0,0,0,0 28:-1,-1,-1,-1 29:k - 2,k - 2,k - 2,k - 2
30:k - 2,k - 2,k - 2,k - 2 31:k - 2,k - 2,k - 2,k - 2 32:-1,-1,-1,-1 33:k - 2,k - 2,k - 2,k - 2 34:-1,-1,-1,-1 35:1,1,1,1
36:k,k,k,k 37:0,0,0,0 38:k,k,k,k 39:k,k,k,k 40:k,k,k,k 41:k,k,k,k
42:1,1,1,1 43:k,k,k,k 44:1,1,1,1 45:0,0,0,0 46:0,0,0,0 47:0,0,0,0
48:0,0,0,0 49:-1,-1,-1,-1 50:-1,-1,-1,-1 51:0,0,0,0 52:-1,-1,-1,-1 53:1,1,1,1
54:1,1,1,1 55:0,0,0,0 56:1,1,1,1 57:0,0,0,0 58:0,0,0,0 59:0,0,0,0
60:-1,-1,-1,-1 61:-1,-1,-1,-1 62:-1,-1,-1,-1 63:-1,-1,-1,-1 64:1,1,1,1 65:1,1,1,1
66:1,1,1,1 67:0,0,0,0 68:0,0,0,0 69:0,0,0,0 70:0,0,0,0 71:-1,-1,-1,-1
72:-1,-1,-1,-1 73:-1,-1,-1,-1 74:1,1,1,1 75:1,1,1,1 76:1,1,1,1 77:0,0,0,0
78:-1,-1,-1,-1 79:1,1,1,1`

// formatOffsets renders res's offsets in the layout of rank4Offsets.
func formatOffsets(res *align.OffsetResult, ports int) string {
	var b strings.Builder
	for id := 0; id < ports; id++ {
		sep := " "
		if id%6 == 0 {
			sep = "\n"
		}
		b.WriteString(sep + fmt.Sprint(id) + ":")
		for t, o := range res.Offsets[id] {
			if t > 0 {
				b.WriteString(",")
			}
			b.WriteString(o.String())
		}
	}
	return b.String()
}

// TestSharedAxesDiverge drives the four identical axes of rank4Src
// through three §6 rounds: no replication, then port 25 replicated on
// axis 1 only, then no replication again. The second round makes axis
// 1's θ costs part from its leader's, so it leaves the group and
// replays its history; axes 2 and 3 keep mirroring axis 0. Port 25 is
// one whose edges make the re-costed warm solve pivot, so a wrong
// replay shows in the effort as well as in the answer.
//
// Every round must give the answer recorded before axes shared solves,
// at Parallelism 1 and 8. The effort is what solving each distinct RLP
// once costs: before sharing the rounds took 592 (4 × 148), 19 and 17
// pivots; now the first round solves one axis (148), the second
// replays axis 1's cold solve before its warm one (148 + 19), and the
// third re-solves axis 1 alone (17).
func TestSharedAxesDiverge(t *testing.T) {
	g, as := rank4Graph(t)
	div := align.NoReplication(g)
	div.PortRepl[25] = []bool{false, true, false, false}
	rounds := []struct {
		repl   *align.ReplResult
		exact  int64
		shared int
		pivots int64
	}{
		{nil, 2654208, 3, 148},
		{div, 2654208, 2, 148 + 19},
		{nil, 2654208, 2, 17},
	}
	for _, par := range []int{1, 8} {
		opts := keptOptions(lp.PresolveAuto)
		opts.Parallelism = par
		solver := align.NewOffsetSolver(g, as, opts)
		for i, r := range rounds {
			res, err := solver.Solve(r.repl)
			if err != nil {
				t.Fatalf("par %d round %d: %v", par, i, err)
			}
			if res.Approx != 0 || res.Exact != r.exact {
				t.Errorf("par %d round %d: approx %v, exact %d; want 0, %d", par, i, res.Approx, res.Exact, r.exact)
			}
			if got := formatOffsets(res, len(g.Ports)); got != rank4Offsets {
				t.Errorf("par %d round %d: offsets\n%s\nwant\n%s", par, i, got, rank4Offsets)
			}
			if res.Solves != 4 || res.Shared != r.shared {
				t.Errorf("par %d round %d: %d solves, %d shared; want 4, %d", par, i, res.Solves, res.Shared, r.shared)
			}
			if res.Stats.Pivots != r.pivots {
				t.Errorf("par %d round %d: %d pivots, want %d", par, i, res.Stats.Pivots, r.pivots)
			}
		}
	}
}

// TestSharedAxes pins which axes of the corpus share their solve in
// the two §6 rounds the pipeline runs: axes 2–4 of src-rank4 build one
// RLP (2 followers), a transpose's two axes build one (1 follower),
// and fig1, mixed and stencil have no two equal axes. A kept rank4Src
// solve, whose four axes are identical, runs the sparse simplex once.
func TestSharedAxes(t *testing.T) {
	progs := goldenPrograms(t)
	for name, want := range map[string]int{
		"src-rank4": 2, "src-transpose": 1, "batch-transpose": 1,
		"src-fig1": 0, "src-mixed": 0, "src-stencil": 0,
	} {
		t.Run(name, func(t *testing.T) {
			g, as, repls := keptRounds(t, progs[name])
			solver := align.NewOffsetSolver(g, as, keptOptions(lp.PresolveAuto))
			for i, repl := range repls {
				res, err := solver.Solve(repl)
				if err != nil {
					t.Fatal(err)
				}
				if res.Shared != want {
					t.Errorf("round %d: %d shared, want %d", i, res.Shared, want)
				}
			}
		})
	}
	g, as := rank4Graph(t)
	res, err := align.NewOffsetSolver(g, as, keptOptions(lp.PresolveAuto)).Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SparseSolves != 1 || res.Shared != 3 {
		t.Errorf("kept rank4Src solve: %d sparse solves, %d shared; want 1, 3", res.Stats.SparseSolves, res.Shared)
	}
}

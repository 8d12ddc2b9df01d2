package align

import (
	"reflect"
	"testing"

	"repro/internal/lp"
)

// TestWarmSolveZeroAlloc extends the TestCacheGetZeroAlloc precedent to
// the full solver hot path: once the scratch pools are warm, a repeat
// §3 DP solve and a warm sparse-LP re-optimization must each run within
// a small constant number of heap allocations (the unavoidable result
// objects), because every piece of working state — flat DP arena,
// intern table, CSC form, eta file, pricing scratch — is recycled.
func TestWarmSolveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun gates are meaningless under -race")
	}
	t.Run("dp", func(t *testing.T) {
		// An identity-alignment chain: every candidate label is the
		// cached identity, so the steady state exercises candidate
		// propagation, config enumeration, and the best-response sweeps
		// without per-solve label derivation.
		g := mustGraph(t, `
real A(64,64), B(64,64), C(64,64)
C = A + B
B = C + A
A = B + C
`)
		var pool scratchPool
		opts := AxisStrideOptions{Parallelism: 1, Restarts: -1, scratch: &pool}
		for i := 0; i < 3; i++ {
			if _, err := AxisStrideOpts(g, opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := AxisStrideOpts(g, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warm flat DP solve: %.1f allocs/op", allocs)
		if allocs > 8 {
			t.Errorf("warm DP solve allocates %.1f objects/op, want <= 8", allocs)
		}
	})

	t.Run("sparse-lp", func(t *testing.T) {
		// An RLP-shaped problem with θ pairs, forced onto the sparse
		// core with a pooled arena. After the cold solve retains the
		// form and basis, warm re-optimizations must not allocate
		// beyond the extracted Solution.
		p := lp.NewProblem()
		const nv = 12
		off := make([]lp.VarID, nv)
		for i := range off {
			off[i] = p.AddVariable(0, true)
		}
		p.AddConstraint(map[lp.VarID]float64{off[0]: 1}, lp.EQ, 0)
		ths := make([]lp.VarID, 0, nv-1)
		for i := 0; i+1 < nv; i++ {
			th := p.AddVariable(float64(1+i%3), false)
			ths = append(ths, th)
			d := float64(i%5 - 2)
			p.AddConstraint(map[lp.VarID]float64{th: 1, off[i]: 1, off[i+1]: -1}, lp.GE, -d)
			p.AddConstraint(map[lp.VarID]float64{th: 1, off[i]: -1, off[i+1]: 1}, lp.GE, d)
		}
		p.SetOptions(lp.Options{Engine: lp.EngineSparse})
		p.SetArena(lp.NewArena())
		p.KeepBasis()
		if _, err := p.Solve(); err != nil {
			t.Fatal(err)
		}
		warm := func(round int) {
			for i, th := range ths {
				p.SetCost(th, float64(1+(i+round)%3))
			}
			if _, err := p.WarmSolve(); err != nil {
				t.Fatal(err)
			}
		}
		warm(1)
		warm(2)
		round := 3
		allocs := testing.AllocsPerRun(100, func() {
			warm(round)
			round++
		})
		t.Logf("warm sparse solve: %.1f allocs/op", allocs)
		if allocs > 8 {
			t.Errorf("warm sparse WarmSolve allocates %.1f objects/op, want <= 8", allocs)
		}
	})
}

// TestDPStateDeterminism pins the flat-state solver against the frozen
// interned-label reference implementation: the labeling, cost and
// general edges are identical to the reference at every parallelism
// level.
func TestDPStateDeterminism(t *testing.T) {
	g := mustGraph(t, `
real B(64,48), C(48,64), D(64,48), E(48,64)
do k = 1, 8
  B = B + transpose(C)
  C = transpose(B)
  D = D + B
  E = transpose(D) + C
  B = D * 2
enddo
`)
	type snap struct {
		labels map[int]ASLabel
		cost   int64
		edges  []int
	}
	take := func(r *AxisStrideResult) snap {
		s := snap{labels: r.Labels, cost: r.Cost}
		for _, e := range r.GeneralEdges {
			s.edges = append(s.edges, e.ID)
		}
		return s
	}
	ref, err := AxisStrideInternedOpts(g, AxisStrideOptions{Parallelism: 1, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	refSnap := take(ref)
	for _, par := range []int{1, 2, 8} {
		res, err := AxisStrideOpts(g, AxisStrideOptions{Parallelism: par, Restarts: 6})
		if err != nil {
			t.Fatal(err)
		}
		got := take(res)
		if got.cost != refSnap.cost || !reflect.DeepEqual(got.labels, refSnap.labels) ||
			!reflect.DeepEqual(got.edges, refSnap.edges) {
			t.Errorf("par=%d: flat result diverges from interned reference (cost %d vs %d)",
				par, got.cost, refSnap.cost)
		}
	}
}

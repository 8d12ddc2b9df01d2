package align

import (
	"errors"
	"sort"

	"repro/internal/adg"
)

// This file is the partition-solve-reassemble layer between Align and
// the solvers. AlignContext decomposes every graph into its weakly
// connected components (adg.PartitionGraph) and solves each component
// as an independent subproblem: no edge crosses components, and every
// objective is a sum over edges. With Options.Cache, each region is one
// content-addressed entry (cacheKey on the region graph, solved through
// the cache with the usual singleflight semantics). A connected program
// is one region whose graph is the program's own, so its key is the one
// it has solved alone; a component inside a larger program shares its
// entry with the same component solved as a program of its own. After
// a one-component edit to a multi-component program every untouched
// region is a warm hit and only the edited region re-solves. Two or
// more regions also fan out over a Scheduler, a coarser and
// better-balanced grain than per-axis.

// alignRegions solves a graph region by region and binds the result to
// g. An owned single-region result is already bound to g (the region
// graph is g itself) and is returned as it is; every other result — a
// single-region hit or singleflight waiter, and any multi-region
// result — is reassembled from the per-region results. Regions fan out
// over a private Scheduler whose budget is the solve's own parallelism
// (never the outer batch Scheduler — the caller may already hold a
// lease there, and re-acquiring inside a held lease can deadlock); each
// region spends its lease on solver-internal parallelism. Determinism:
// every region solve is independent of parallelism, reassembly is in
// canonical region order, and on failure the error of the
// lowest-indexed failing region wins.
func alignRegions(g *adg.Graph, part *adg.Partition, opts Options) (*Result, error) {
	nr := len(part.Regions)
	cache := opts.Cache
	sub := opts
	sub.Cache = nil

	results := make([]*Result, nr)
	errs := make([]error, nr)
	hits := make([]bool, nr)

	width := opts.Offset.Parallelism
	if width <= 0 {
		width = opts.AxisStride.Parallelism
	}
	// solve aligns region i. A positive lease caps the region's internal
	// solver parallelism (parallel fan-out divides the solve's own
	// budget); lease 0 keeps the caller's per-solver settings (the
	// sequential fan-out changes nothing about how each region solves).
	solve := func(i, lease int) {
		ropts := sub
		if lease > 0 {
			ropts.AxisStride.Parallelism = lease
			ropts.Offset.Parallelism = lease
		}
		rg := part.Regions[i].Graph
		if cache == nil {
			results[i], errs[i] = alignMono(rg, ropts)
			return
		}
		// A hit is passed on as the cached result itself: reassembly
		// reads it only by region port and edge ID (equal across
		// canonically identical graphs) and copies what it keeps, so the
		// cache entry is never written.
		var owned bool
		results[i], owned, errs[i] = cache.pipe.do(opts.ctx, cacheKey(rg, ropts), func() (*Result, error) {
			return alignMono(rg, ropts)
		})
		hits[i] = !owned
	}
	if nr < 2 || width == 1 {
		for i := 0; i < nr; i++ {
			if err := opts.ctxErr(); err != nil {
				return nil, err
			}
			solve(i, 0)
		}
	} else {
		sched := NewScheduler(width)
		if err := sched.MapContext(opts.ctx, nr, solve); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nr; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if results[i] == nil {
			// A slot the scheduler never dispatched: only cancellation
			// can cause this, and MapContext reported it above; keep a
			// guard so a nil result can never flow into reassembly.
			if err := opts.ctxErr(); err != nil {
				return nil, err
			}
			return nil, errInternalNilRegion
		}
	}
	if nr == 1 && !hits[0] {
		return results[0], nil
	}
	return reassembleRegions(g, part, results, hits), nil
}

// errInternalNilRegion guards reassembly against a region slot that was
// neither solved nor failed; it is unreachable in a correct scheduler.
var errInternalNilRegion = errors.New("align: internal: region solve missing")

// reassembleRegions merges per-region results into one Result for the
// parent graph; it is the one way a cached result is rebound to a
// caller's graph. Per-port tables remap region port IDs to parent port
// IDs; edge lists remap to parent edges and sort by parent edge ID (the
// canonical order — regions interleave in the parent numbering);
// scalar costs, volumes, and effort counters sum; LP dimensions take
// the largest single region (they describe the largest LP solved).
// Phase times sum across the regions solved by this call, so under
// region-parallel execution they read as aggregate solver time, not
// wall time; a region hit (hits[ri]) is a cached result whose times
// describe an earlier solve and adds zero, and CacheHit is set when
// every region was a hit. results are only read.
func reassembleRegions(g *adg.Graph, part *adg.Partition, results []*Result, hits []bool) *Result {
	as := &AxisStrideResult{Labels: make(map[int]ASLabel, len(g.Ports))}
	repl := &ReplResult{
		PortRepl: make(map[int][]bool, len(g.Ports)),
		PerAxis:  make([]int64, g.TemplateRank),
		CutEdges: make([][]*adg.Edge, g.TemplateRank),
	}
	off := newOffsetResult(g)
	out := &Result{Graph: g, AxisStride: as, Repl: repl, Offset: off, Regions: len(results)}

	var generalIDs []int
	cutIDs := make([][]int, g.TemplateRank)
	for ri, r := range results {
		reg := part.Regions[ri]
		for pi, parentID := range reg.Ports {
			as.Labels[parentID] = r.AxisStride.Labels[pi]
			copy(off.Offsets[parentID], r.Offset.Offsets[pi])
			if v, ok := r.Repl.PortRepl[pi]; ok {
				repl.PortRepl[parentID] = append([]bool{}, v...)
			}
		}
		as.Cost += r.AxisStride.Cost
		mergeDPStats(&as.Stats, r.AxisStride.Stats)
		for _, e := range r.AxisStride.GeneralEdges {
			generalIDs = append(generalIDs, reg.Edges[e.ID])
		}
		repl.Broadcast += r.Repl.Broadcast
		for t := 0; t < g.TemplateRank; t++ {
			if t < len(r.Repl.PerAxis) {
				repl.PerAxis[t] += r.Repl.PerAxis[t]
			}
			if t < len(r.Repl.CutEdges) {
				for _, e := range r.Repl.CutEdges[t] {
					cutIDs[t] = append(cutIDs[t], reg.Edges[e.ID])
				}
			}
		}
		out.Cost.Add(r.Cost)
		off.Approx += r.Offset.Approx
		off.Exact += r.Offset.Exact
		off.Solves += r.Offset.Solves
		off.Shared += r.Offset.Shared
		if r.Offset.LPVariables > off.LPVariables {
			off.LPVariables = r.Offset.LPVariables
		}
		if r.Offset.LPConstraints > off.LPConstraints {
			off.LPConstraints = r.Offset.LPConstraints
		}
		off.Stats.Add(r.Offset.Stats)
		if hits[ri] {
			out.RegionHits++
		} else {
			out.Times.AxisStride += r.Times.AxisStride
			out.Times.Replication += r.Times.Replication
			out.Times.Offsets += r.Times.Offsets
		}
	}
	out.CacheHit = len(results) > 0 && out.RegionHits == len(results)
	sort.Ints(generalIDs)
	for _, id := range generalIDs {
		as.GeneralEdges = append(as.GeneralEdges, g.Edges[id])
	}
	for t := range cutIDs {
		sort.Ints(cutIDs[t])
		for _, id := range cutIDs[t] {
			repl.CutEdges[t] = append(repl.CutEdges[t], g.Edges[id])
		}
	}
	out.Assignment = out.BuildAssignment()
	return out
}

// mergeDPStats sums every DPStats field (unlike the solver-internal
// add, which skips the per-solve Labels/Configs snapshots — across
// regions those are disjoint problems, so summing is the right merge).
func mergeDPStats(d *DPStats, o DPStats) {
	d.Starts += o.Starts
	d.Labels += o.Labels
	d.Configs += o.Configs
	d.Sweeps += o.Sweeps
	d.Moves += o.Moves
	d.Evals += o.Evals
	d.ExpansionAccepts += o.ExpansionAccepts
}

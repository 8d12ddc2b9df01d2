// Command alignc is the alignment compiler driver: it parses a program in
// the mini data-parallel language, builds its alignment-distribution
// graph, runs the full alignment pipeline (axis/stride, replication,
// mobile offsets), and reports the chosen alignments and their
// realignment cost. With -sim it also replays the aligned program on the
// distributed-memory machine simulator.
//
// Usage:
//
//	alignc [-strategy fixed|unroll|search|zerotrack|recursive] [-m N]
//	       [-par N] [-cache] [-norepl] [-dot] [-sim] [-top N]
//	       [-grid PxQ] [-timeout D] [-cpuprofile F] [-memprofile F] file.dp
//	alignc -batch 'progs/*.dp' [-workers N] [-timeout D] [-deadline D] [...]
//	alignc -editstream N [-par N]
//
// With no file, the Figure 1 fragment from the paper is compiled. With
// -batch, every file matching the glob is aligned under one global
// worker budget (the batch engine: sharded result cache with
// singleflight dedup plus a cooperative scheduler) and a per-file
// summary with aggregate throughput is printed.
//
// -timeout bounds each solve and -deadline bounds the whole batch;
// slots that miss their budget report per-file errors while the rest
// complete. Interrupting a batch (Ctrl-C or SIGTERM) drains gracefully:
// running solves abort at their next cancellation check and the summary
// is still printed for everything that finished. Per-slot errors go to
// stderr; stdout carries only result and summary rows. The exit status
// is 0 only when every slot finished: failed or unfinished slots exit 1
// so scripted callers can trust the code instead of scraping output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/machine"
)

const fig1 = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

func main() { os.Exit(run()) }

// run is main with an exit code: profile defers must fire before the
// process exits, which os.Exit in main's own frame would skip.
func run() int {
	strategy := flag.String("strategy", "fixed", "mobile offset strategy: fixed, unroll, search, zerotrack, recursive")
	m := flag.Int("m", 3, "subranges per loop level for fixed partitioning")
	norepl := flag.Bool("norepl", false, "disable replication labeling")
	par := flag.Int("par", 0, "solver parallelism: offset-LP axes and DP multi-starts (0 = GOMAXPROCS, 1 = sequential)")
	useCache := flag.Bool("cache", false, "enable the pipeline result cache and re-align once to demonstrate a hit")
	dot := flag.Bool("dot", false, "print the ADG in Graphviz DOT format and exit")
	sim := flag.Bool("sim", false, "simulate the aligned program on a distributed-memory machine")
	grid := flag.String("grid", "4x4", "processor grid for -sim, e.g. 8x8")
	top := flag.Int("top", 10, "edges to show in the cost report")
	editstream := flag.Int("editstream", 0, "demo mode: build an N-component program, then re-align it N times with one component edited each round, printing per-edit latency and region hit rate (implies -cache)")
	batch := flag.String("batch", "", "align every file matching the glob as one batch")
	workers := flag.Int("workers", 0, "global worker budget for -batch (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-solve time budget (0 = none); a solve that exceeds it fails alone")
	deadline := flag.Duration("deadline", 0, "whole-batch time budget for -batch (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	src := fig1
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	} else if *batch == "" && *editstream <= 0 {
		fmt.Fprintln(os.Stderr, "alignc: no input file; compiling the paper's Figure 1 fragment")
	}

	st, err := align.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	opts := repro.Options{Strategy: st, Subranges: *m, Replication: !*norepl, Parallelism: *par}

	// Ctrl-C or SIGTERM (what init systems and orchestrators send — the
	// same drain set alignd hooks) cancels the context: running solves
	// abort at their next cancellation check instead of being killed
	// mid-batch, and the batch summary still covers everything that
	// finished. A second signal (after stop) kills the process the
	// usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *batch != "" {
		return runBatch(ctx, *batch, opts, *workers, *timeout, *deadline)
	}
	if *editstream > 0 {
		runEditStream(ctx, *editstream, opts)
		return 0
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *useCache {
		opts.Cache = repro.NewCache(0)
	}
	res, err := repro.AlignSourceContext(ctx, src, opts)
	if err != nil {
		fatal(err)
	}
	if *useCache {
		// Compile the unchanged program again: the repeat is served from
		// the source memo tier, which the report of the second result
		// records.
		t0 := time.Now()
		res, err = repro.AlignSourceContext(ctx, src, opts)
		if err != nil {
			fatal(err)
		}
		hits, misses := opts.Cache.Counters()
		mHits, _, _, _ := opts.Cache.SourceCounters()
		fmt.Fprintf(os.Stderr, "alignc: cached re-alignment in %s (%d memo hits, %d pipeline hits / %d misses)\n",
			time.Since(t0).Round(time.Microsecond), mHits, hits, misses)
	}
	if *dot {
		fmt.Print(res.Graph.Dot())
		return 0
	}
	fmt.Println(res.Report())
	if *top > 0 {
		fmt.Println("costliest edges:")
		fmt.Print(res.CostReport(*top))
	}
	if *sim {
		cfg := machine.Config{Grid: parseGrid(*grid, res.Graph.TemplateRank)}
		tr := machine.Simulate(res.Graph, res.Assignment(), cfg)
		fmt.Printf("machine simulation (%s grid): %s\n", *grid, tr)
		fmt.Printf("modeled time: %.0f units\n", tr.Time(cfg))
	}
	return 0
}

// editComponent renders one independent loop computation over arrays
// suffixed i; variant v > 0 changes a section constant — a one-line
// edit confined to this component that always differs from the v = 0
// base (the base uses shift 1, edits use 2..5).
func editComponent(i int, v int64) (decl, body string) {
	e := int64(1)
	if v > 0 {
		e = 2 + v%4
	}
	return fmt.Sprintf("C%d(120), D%d(120)", i, i),
		fmt.Sprintf("do k = 1, 40\n  C%d(k:k+19) = C%d(k:k+19) + D%d(k+%d:k+%d)\nenddo\n", i, i, i, e, e+19)
}

// editStreamSrc composes n independent components, with component
// `edited` (when >= 0) carrying variant v — a realistic "one statement
// changed" program revision.
func editStreamSrc(n, edited int, v int64) string {
	decls := make([]string, n)
	var body strings.Builder
	for i := 0; i < n; i++ {
		variant := int64(0)
		if i == edited {
			variant = v
		}
		d, b := editComponent(i, variant)
		decls[i] = d
		body.WriteString(b)
	}
	return "real " + strings.Join(decls, ", ") + "\n" + body.String()
}

// runEditStream demonstrates incremental re-alignment: a cold solve of
// an n-component program, then n rounds each editing one line of one
// component and re-aligning. The cache holds one entry per component,
// so every untouched component is a warm region hit and only the
// edited one re-solves.
func runEditStream(ctx context.Context, n int, opts repro.Options) {
	if opts.Cache == nil {
		opts.Cache = repro.NewCache(4 * n)
	}
	t0 := time.Now()
	res, err := repro.AlignSourceContext(ctx, editStreamSrc(n, -1, 0), opts)
	if err != nil {
		fatal(err)
	}
	cold := time.Since(t0)
	fmt.Printf("cold solve: %d components, %d regions, %s\n",
		n, res.Align.Regions, cold.Round(time.Microsecond))
	var total time.Duration
	for round := 0; round < n; round++ {
		src := editStreamSrc(n, round%n, int64(1+round))
		t0 = time.Now()
		res, err = repro.AlignSourceContext(ctx, src, opts)
		if err != nil {
			fatal(err)
		}
		d := time.Since(t0)
		total += d
		fmt.Printf("edit %2d (component %2d): %10s  region hits %d/%d  cost %s\n",
			round, round%n, d.Round(time.Microsecond),
			res.Align.RegionHits, res.Align.Regions, res.Cost)
	}
	hits, misses := opts.Cache.Counters()
	computes, shared := opts.Cache.FlightStats()
	fmt.Printf("edit stream: %d edits in %s (mean %s; cold was %s)\n",
		n, total.Round(time.Microsecond), (total / time.Duration(n)).Round(time.Microsecond),
		cold.Round(time.Microsecond))
	fmt.Printf("cache: %d hits / %d misses, %d pipeline executions, %d shared\n",
		hits, misses, computes, shared)
}

// runBatch aligns every file matching the glob under one worker budget
// and prints a per-file summary plus aggregate throughput and cache
// statistics. Files are sorted by name so the output (and the result
// order) is deterministic regardless of filesystem enumeration. The
// context carries the SIGINT/SIGTERM drain; deadline (when > 0)
// additionally bounds the whole batch and timeout bounds each solve.
// Interrupted or expired runs still print the summary: completed slots
// report their costs on stdout, failed ones their errors on stderr.
// The returned exit code is 0 only when every slot finished cleanly;
// any failed slot — or a fired deadline or drain — makes it 1.
func runBatch(ctx context.Context, glob string, opts repro.Options, workers int, timeout, deadline time.Duration) int {
	files, err := filepath.Glob(glob)
	if err != nil {
		fatal(err)
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("batch: no files match %q", glob))
	}
	sort.Strings(files)
	srcs := make([]string, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		srcs[i] = string(data)
	}
	if opts.Cache == nil {
		opts.Cache = repro.NewCache(len(srcs))
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	t0 := time.Now()
	results := repro.AlignBatchContext(ctx, srcs, opts, repro.BatchOptions{Workers: workers, SolveTimeout: timeout})
	elapsed := time.Since(t0)
	failed, canceled := 0, 0
	for i, br := range results {
		if br.Err != nil {
			failed++
			if errors.Is(br.Err, context.Canceled) || errors.Is(br.Err, context.DeadlineExceeded) {
				canceled++
			}
			fmt.Fprintf(os.Stderr, "%-30s ERROR %v\n", files[i], br.Err)
			continue
		}
		tag := ""
		if br.Result.MemoHit {
			tag = "  [memo hit]"
		} else if br.Result.Align.CacheHit {
			tag = "  [cache hit]"
		}
		fmt.Printf("%-30s exact cost %s%s\n", files[i], br.Result.Cost, tag)
	}
	computes, shared := opts.Cache.FlightStats()
	hits, misses := opts.Cache.Counters()
	fmt.Printf("batch: %d programs (%d failed) in %s — %.1f programs/sec\n",
		len(srcs), failed, elapsed.Round(time.Microsecond),
		float64(len(srcs))/elapsed.Seconds())
	mHits, mMisses, mShared, _ := opts.Cache.SourceCounters()
	fmt.Printf("cache: %d pipeline executions, %d singleflight-shared, %d hits / %d misses, shard contention %d\n",
		computes, shared, hits, misses, opts.Cache.Contention())
	fmt.Printf("source memo: %d hits, %d shared, %d front-end runs\n", mHits, mShared, mMisses)
	if err := ctx.Err(); err != nil {
		reason := "canceled"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "deadline exceeded"
		}
		fmt.Fprintf(os.Stderr, "alignc: batch %s — %d of %d slots unfinished\n",
			reason, canceled, len(srcs))
	}
	if failed > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

func parseGrid(s string, rank int) []int {
	parts := strings.Split(strings.ToLower(s), "x")
	out := make([]int, 0, rank)
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad grid %q", s))
		}
		out = append(out, v)
	}
	for len(out) < rank {
		out = append(out, 1)
	}
	return out[:rank]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alignc:", err)
	os.Exit(1)
}

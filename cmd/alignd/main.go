// Command alignd serves the alignment pipeline as a daemon: the batch
// engine's sharded singleflight cache and cooperative scheduler behind
// an HTTP API, so warm caches and scratch arenas are amortized across
// requests instead of one CLI process lifetime.
//
//	alignd -addr :7421 -workers 8 -tenant-budget 32
//
// Endpoints (see internal/service): POST /v1/solve, POST /v1/batch
// (NDJSON stream), GET /v1/stats, GET /metrics (Prometheus text),
// GET /healthz. Admission is per tenant via the X-Tenant header.
//
// On SIGTERM or SIGINT the daemon drains: new work is rejected with
// 503 while in-flight solves finish (up to -drain-timeout, then they
// are hard-canceled), a final metrics snapshot is flushed to stderr,
// and the process exits 0 on a clean drain, 1 on a forced one.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/align"
	"repro/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:7421", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "scheduler worker budget (0 = GOMAXPROCS)")
	cacheCap := flag.Int("cache", 4096, "pipeline result cache capacity (entries)")
	tenantBudget := flag.Int("tenant-budget", 0, "default per-tenant budget of in-flight program slots (0 derives 4x workers, negative = unlimited)")
	tenantBudgets := flag.String("tenant-budgets", "", "per-tenant overrides, name=slots comma-separated (slots <= 0 = unlimited)")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-program solve deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight solves before hard-canceling them")
	strategy := flag.String("strategy", "fixed", "default offset strategy: fixed|unroll|search|zerotrack|recursive")
	m := flag.Int("m", 3, "default subranges per iteration range (fixed strategy)")
	norepl := flag.Bool("norepl", false, "disable replication labeling by default")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "alignd: unexpected arguments:", strings.Join(flag.Args(), " "))
		return 2
	}

	st, err := align.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		return 2
	}
	overrides, err := parseTenantBudgets(*tenantBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		return 2
	}

	srv := service.New(service.Config{
		Workers:       *workers,
		CacheCap:      *cacheCap,
		TenantBudget:  *tenantBudget,
		TenantBudgets: overrides,
		SolveTimeout:  *solveTimeout,
		Strategy:      st,
		Subranges:     *m,
		NoReplication: *norepl,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "alignd: listening on %s (%d workers)\n",
		ln.Addr(), srv.Scheduler().Workers())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Drain on SIGTERM (orchestrated shutdown) and SIGINT (^C) alike —
	// the same signal set alignc drains on.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "alignd:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintf(os.Stderr, "alignd: draining (timeout %v)\n", *drainTimeout)
	code := 0
	if err := srv.Drain(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		code = 1
	}
	// The listener closes only after the drain: in-flight responses
	// finish over their open connections, late arrivals saw 503.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "alignd: shutdown:", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "alignd: final metrics")
	fmt.Fprint(os.Stderr, srv.MetricsText())
	fmt.Fprintln(os.Stderr, "alignd: drained")
	return code
}

// parseTenantBudgets parses "name=slots,name=slots" override lists.
func parseTenantBudgets(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-budgets entry %q (want name=slots)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad -tenant-budgets slots in %q: %v", part, err)
		}
		out[name] = n
	}
	return out, nil
}

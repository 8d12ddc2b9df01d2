// Package service is the embeddable core of cmd/alignd, the alignment
// daemon: the full batch engine (sharded singleflight cache, cooperative
// scheduler, pooled scratch) behind an HTTP API, so the cost of warm
// caches and arenas is amortized across millions of requests instead of
// one CLI process lifetime.
//
// Endpoints:
//
//	POST /v1/solve   one program  → JSON result
//	POST /v1/batch   many programs → NDJSON stream, one line per slot as
//	                 it completes (tagged with its input index), then a
//	                 summary line
//	GET  /v1/stats   JSON snapshot: scheduler occupancy, cache counters,
//	                 per-tenant admission, latency quantiles
//	GET  /metrics    Prometheus text format
//	GET  /healthz    200 while serving, 503 while draining
//
// Admission is per tenant (the X-Tenant header; unidentified callers
// share the "default" pool): each tenant holds a budget of concurrently
// admitted program slots, and a request that would exceed it is
// rejected with 429 immediately — quota never queues. Admitted slots
// then lease scheduler workers one per slot, so request concurrency is
// the parallelism grain and a tenant's quota bounds the scheduler
// capacity it can occupy.
//
// The server is an http.Handler; cmd/alignd wires it to a listener and
// signals. Drain turns every subsequent request into a 503, waits for
// in-flight work up to its timeout, then hard-cancels the leftovers
// (solves abort at their next cancellation check — never a partial
// labeling).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/align"
)

// Config configures a Server.
type Config struct {
	// Workers is the scheduler's global worker budget (<= 0 means
	// GOMAXPROCS). One worker is leased per in-flight program slot.
	Workers int
	// CacheCap bounds the shared pipeline result cache (entries);
	// <= 0 means DefaultCacheCap entries.
	CacheCap int
	// TenantBudget is the default per-tenant budget of concurrently
	// admitted program slots. 0 derives 4× the worker budget (full
	// occupancy plus a bounded queue); negative means unlimited.
	TenantBudget int
	// TenantBudgets overrides the budget per tenant key (<= 0 entries
	// make that tenant unlimited).
	TenantBudgets map[string]int
	// SolveTimeout, when > 0, bounds every program slot's solve.
	SolveTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchSlots caps programs per /v1/batch request (default 4096).
	MaxBatchSlots int

	// Strategy is the default mobile-offset strategy (zero value is
	// StrategyFixed, the paper's recommendation).
	Strategy align.Strategy
	// Subranges is the fixed-partitioning m (default 3).
	Subranges int
	// NoReplication disables §5 replication labeling.
	NoReplication bool
}

// Server is the alignment daemon core. Create it with New; it serves
// via ServeHTTP and shuts down via Drain.
type Server struct {
	cfg     Config
	sched   *align.Scheduler
	cache   *align.Cache
	quota   *align.TenantQuota
	metrics *metrics
	mux     *http.ServeMux

	draining atomic.Bool
	// mu guards inflight and idle. A sync.WaitGroup cannot count the
	// requests here: stats and metrics requests keep arriving during a
	// drain, and a WaitGroup forbids an Add from zero concurrent with
	// Wait.
	mu       sync.Mutex
	inflight int
	idle     chan struct{} // made by Drain, closed once inflight is 0

	// hardCtx is canceled only when a drain times out: it aborts the
	// in-flight solves that did not finish inside the drain window.
	hardCtx    context.Context
	hardCancel context.CancelFunc
}

// New returns a ready-to-serve daemon core.
func New(cfg Config) *Server {
	if cfg.Subranges <= 0 {
		cfg.Subranges = 3
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxBatchSlots <= 0 {
		cfg.MaxBatchSlots = 4096
	}
	sched := align.NewScheduler(cfg.Workers)
	budget := cfg.TenantBudget
	if budget == 0 {
		budget = 4 * sched.Workers()
	} else if budget < 0 {
		budget = 0 // TenantQuota's "unlimited"
	}
	s := &Server{
		cfg:     cfg,
		sched:   sched,
		cache:   align.NewCache(cfg.CacheCap),
		quota:   align.NewTenantQuota(budget, cfg.TenantBudgets),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/solve", s.handle("solve", s.serveSolve))
	s.mux.HandleFunc("POST /v1/batch", s.handle("batch", s.serveBatch))
	s.mux.HandleFunc("GET /v1/stats", s.handle("stats", s.serveStats))
	s.mux.HandleFunc("GET /metrics", s.handle("metrics", s.serveMetrics))
	s.mux.HandleFunc("GET /healthz", s.handle("healthz", s.serveHealthz))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the daemon's scheduler for observability (stats
// snapshots in tests and the load-test harness's leak check).
func (s *Server) Scheduler() *align.Scheduler { return s.sched }

// Cache exposes the daemon's shared pipeline cache.
func (s *Server) Cache() *align.Cache { return s.cache }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting work (every subsequent request gets 503) and
// waits for in-flight requests. If they do not finish within timeout
// (<= 0 waits forever), the leftovers are hard-canceled — their solves
// abort at the next cancellation check and report errors, never partial
// labelings — and Drain returns an error describing the forced stop.
// After Drain returns nil, no leases or request goroutines remain.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining.Store(true)
	if s.idle == nil {
		s.idle = make(chan struct{})
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	done := s.idle
	s.mu.Unlock()
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-done:
		return nil
	case <-expire:
	}
	s.hardCancel()
	select {
	case <-done:
		return fmt.Errorf("drain: in-flight work canceled after %v", timeout)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("drain: requests still running %v after cancellation", timeout)
	}
}

// handle wraps an endpoint body with in-flight accounting and the
// per-endpoint request counter.
func (s *Server) handle(endpoint string, body func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.enter()
		defer s.exit()
		s.metrics.inflightRequests.Add(1)
		defer s.metrics.inflightRequests.Add(-1)
		code := body(w, r)
		s.metrics.countRequest(endpoint, code)
	}
}

// enter and exit count one request in flight; the exit that brings the
// count to zero during a drain releases Drain.
func (s *Server) enter() {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
}

func (s *Server) exit() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		select {
		case <-s.idle: // already released
		default:
			close(s.idle)
		}
	}
	s.mu.Unlock()
}

// SolveRequest is the /v1/solve body. Only Source is required; the
// option fields override the daemon's defaults for this request (they
// are part of the cache key, so differently configured requests never
// share results).
type SolveRequest struct {
	Source string `json:"source"`
	// Strategy overrides the mobile-offset strategy: "fixed", "unroll",
	// "search", "zerotrack", or "recursive".
	Strategy  string `json:"strategy,omitempty"`
	Subranges int    `json:"subranges,omitempty"`
	NoRepl    *bool  `json:"norepl,omitempty"`
	// TimeoutMS bounds this solve (capped by the daemon's own
	// SolveTimeout when both are set).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveResponse is the /v1/solve result.
type SolveResponse struct {
	// Cost is the exact realignment cost total (element·hops of shift
	// plus element volume of general and broadcast communication).
	Cost      int64 `json:"cost"`
	General   int64 `json:"general"`
	Shift     int64 `json:"shift"`
	Broadcast int64 `json:"broadcast"`
	// CacheHit reports that any tier answered this solve: the source
	// memo in front of the pipeline, or the pipeline cache behind it.
	CacheHit bool `json:"cache_hit"`
	// MemoHit reports specifically that the source memo tier answered —
	// the request skipped lex, parse, sema, and ADG build entirely.
	MemoHit bool `json:"memo_hit,omitempty"`
	Regions int  `json:"regions"`
	// SolveNs is the server-side latency of this slot, including any
	// time queued for quota-admitted scheduler workers.
	SolveNs int64 `json:"solve_ns"`
	// Report is the human-readable pipeline report.
	Report string `json:"report"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Programs  []string `json:"programs"`
	Strategy  string   `json:"strategy,omitempty"`
	Subranges int      `json:"subranges,omitempty"`
	NoRepl    *bool    `json:"norepl,omitempty"`
	// TimeoutMS bounds each slot's solve.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchSlot is one NDJSON line of a /v1/batch response: the result (or
// error) of the program at input index Slot, emitted when it completes.
type BatchSlot struct {
	Slot     int    `json:"slot"`
	Cost     int64  `json:"cost"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	SolveNs  int64  `json:"solve_ns"`
	Error    string `json:"error,omitempty"`
}

// BatchSummary is the final NDJSON line of a /v1/batch response.
type BatchSummary struct {
	Summary   bool  `json:"summary"`
	Programs  int   `json:"programs"`
	Failed    int   `json:"failed"`
	ElapsedNs int64 `json:"elapsed_ns"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // a failed write means the client left
	return code
}

func writeErr(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, errorResponse{Error: msg})
}

// tenantOf keys admission by the X-Tenant header; unidentified callers
// share the fair default pool.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// decodeBody parses the JSON request body under the size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// requestCtx derives the slot context: it follows the client connection
// (a gone client cancels its own work) and the drain hard-cancel.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// requestOptions lowers a request's option overrides onto the daemon
// defaults. An unknown strategy name is reported as an error.
func (s *Server) requestOptions(strategy string, subranges int, norepl *bool) (align.Options, error) {
	st := s.cfg.Strategy
	if strategy != "" {
		var err error
		if st, err = align.ParseStrategy(strategy); err != nil {
			return align.Options{}, err
		}
	}
	m := s.cfg.Subranges
	if subranges > 0 {
		m = subranges
	}
	repl := !s.cfg.NoReplication
	if norepl != nil {
		repl = !*norepl
	}
	return align.Options{
		Offset:      align.OffsetOptions{Strategy: st, M: m},
		Replication: repl,
		Cache:       s.cache,
	}, nil
}

// solveTimeout resolves the per-slot deadline: the tighter of the
// daemon's SolveTimeout and the request's timeout_ms.
func (s *Server) solveTimeout(reqMS int64) time.Duration {
	d := s.cfg.SolveTimeout
	if reqMS > 0 {
		r := time.Duration(reqMS) * time.Millisecond
		if d <= 0 || r < d {
			d = r
		}
	}
	return d
}

// solveOne runs one program slot: lease one scheduler worker, then the
// shared memo-aware source-to-cost pipeline (source memo tier in front,
// pooled front end on a miss) under the per-slot panic boundary. A
// canceled or expired ctx — before or during the solve — returns an
// error, never a partial labeling.
func (s *Server) solveOne(ctx context.Context, label, src string, opts align.Options, timeout time.Duration) (*repro.Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	release, err := s.sched.Acquire(ctx, 1)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := align.Protect(label, func() (*repro.Result, error) {
		return repro.AlignSourceLeased(ctx, s.sched, src, opts, 1)
	})
	if err == nil {
		s.metrics.observeFrontend(res.Frontend)
	}
	return res, err
}

// errCode maps a solve error to its HTTP status: deadline → 504,
// cancellation (client gone or drain hard-stop) → 503, anything else —
// parse errors, hostile programs, solver budgets — → 422.
func errCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return writeErr(w, http.StatusServiceUnavailable, "draining: not accepting new work")
	}
	var req SolveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	if req.Source == "" {
		return writeErr(w, http.StatusBadRequest, "missing \"source\"")
	}
	opts, err := s.requestOptions(req.Strategy, req.Subranges, req.NoRepl)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	tenant := tenantOf(r)
	if !s.quota.TryAcquire(tenant, 1) {
		w.Header().Set("Retry-After", "1")
		return writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q is over its quota of %d in-flight program slots", tenant, s.quota.Budget(tenant)))
	}
	defer s.quota.Release(tenant, 1)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := s.solveOne(ctx, "solve", req.Source, opts, s.solveTimeout(req.TimeoutMS))
	d := time.Since(t0)
	s.metrics.solveHist.observe(d)
	if err != nil {
		return writeErr(w, errCode(err), err.Error())
	}
	return writeJSON(w, http.StatusOK, SolveResponse{
		Cost:      res.Cost.Total(),
		General:   res.Cost.General,
		Shift:     res.Cost.Shift,
		Broadcast: res.Cost.Broadcast,
		CacheHit:  res.Align.CacheHit || res.MemoHit,
		MemoHit:   res.MemoHit,
		Regions:   res.Align.Regions,
		SolveNs:   int64(d),
		Report:    res.Report(),
	})
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return writeErr(w, http.StatusServiceUnavailable, "draining: not accepting new work")
	}
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	n := len(req.Programs)
	if n == 0 {
		return writeErr(w, http.StatusBadRequest, "missing \"programs\"")
	}
	if n > s.cfg.MaxBatchSlots {
		return writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d programs exceeds the %d-slot cap", n, s.cfg.MaxBatchSlots))
	}
	opts, err := s.requestOptions(req.Strategy, req.Subranges, req.NoRepl)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	tenant := tenantOf(r)
	if !s.quota.TryAcquire(tenant, n) {
		w.Header().Set("Retry-After", "1")
		return writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch of %d slots exceeds tenant %q's quota of %d", n, tenant, s.quota.Budget(tenant)))
	}
	defer s.quota.Release(tenant, n)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	timeout := s.solveTimeout(req.TimeoutMS)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)

	// Every slot runs in its own goroutine gated by the scheduler's
	// one-worker-per-slot lease; completed slots stream to the encoder
	// in completion order, tagged with their input index.
	t0 := time.Now()
	slots := make(chan BatchSlot)
	var wg sync.WaitGroup
	for i, src := range req.Programs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			ts := time.Now()
			res, err := s.solveOne(ctx, fmt.Sprintf("batch slot %d", i), src, opts, timeout)
			d := time.Since(ts)
			s.metrics.solveHist.observe(d)
			slot := BatchSlot{Slot: i, SolveNs: int64(d)}
			if err != nil {
				slot.Error = err.Error()
			} else {
				slot.Cost = res.Cost.Total()
				slot.CacheHit = res.Align.CacheHit || res.MemoHit
			}
			slots <- slot
		}(i, src)
	}
	go func() {
		wg.Wait()
		close(slots)
	}()
	failed := 0
	for slot := range slots {
		if slot.Error != "" {
			failed++
		}
		enc.Encode(slot) //nolint:errcheck // client gone: slots still drain
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(BatchSummary{ //nolint:errcheck
		Summary: true, Programs: n, Failed: failed, ElapsedNs: int64(time.Since(t0)),
	})
	return http.StatusOK
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	UptimeNs  int64              `json:"uptime_ns"`
	Draining  bool               `json:"draining"`
	Requests  []requestCount     `json:"requests"`
	Scheduler SchedulerStatsJSON `json:"scheduler"`
	Cache     CacheStatsJSON     `json:"cache"`
	Tenants   []TenantStatsJSON  `json:"tenants"`
	SolveP50  float64            `json:"solve_p50_seconds"`
	SolveP99  float64            `json:"solve_p99_seconds"`
	SolveP999 float64            `json:"solve_p999_seconds"`
	Solves    int64              `json:"solves"`
}

// SchedulerStatsJSON mirrors align.SchedulerStats.
type SchedulerStatsJSON struct {
	Budget    int `json:"budget"`
	Available int `json:"available"`
	Leased    int `json:"leased"`
	Waiting   int `json:"waiting"`
}

// CacheStatsJSON is the shared cache's counter snapshot, covering both
// tiers: the pipeline-result cache and the source memo tier in front of
// it (memo_* fields).
type CacheStatsJSON struct {
	Len        int   `json:"len"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Computes   int64 `json:"computes"`
	Shared     int64 `json:"shared"`
	Contention int64 `json:"contention"`

	MemoLen      int   `json:"memo_len"`
	MemoHits     int64 `json:"memo_hits"`
	MemoMisses   int64 `json:"memo_misses"`
	MemoComputes int64 `json:"memo_computes"`
	MemoShared   int64 `json:"memo_shared"`
}

// TenantStatsJSON mirrors align.TenantStats.
type TenantStatsJSON struct {
	Tenant    string `json:"tenant"`
	Budget    int    `json:"budget"`
	InUse     int    `json:"in_use"`
	Admitted  int64  `json:"admitted"`
	Throttled int64  `json:"throttled"`
}

func (s *Server) serveStats(w http.ResponseWriter, r *http.Request) int {
	st := s.sched.Stats()
	hits, misses := s.cache.Counters()
	computes, shared := s.cache.FlightStats()
	mHits, mMisses, mShared, mComputes := s.cache.SourceCounters()
	p50, p99, p999 := s.metrics.solveHist.Quantiles()
	resp := StatsResponse{
		UptimeNs: int64(time.Since(s.metrics.start)),
		Draining: s.draining.Load(),
		Requests: s.metrics.requestCounts(),
		Scheduler: SchedulerStatsJSON{
			Budget: st.Budget, Available: st.Available, Leased: st.Leased, Waiting: st.Waiting,
		},
		Cache: CacheStatsJSON{
			Len: s.cache.Len(), Hits: hits, Misses: misses,
			Computes: computes, Shared: shared, Contention: s.cache.Contention(),
			MemoLen: s.cache.SourceLen(), MemoHits: mHits, MemoMisses: mMisses,
			MemoComputes: mComputes, MemoShared: mShared,
		},
		SolveP50: p50, SolveP99: p99, SolveP999: p999,
		Solves: s.metrics.solveHist.count.Load(),
	}
	for _, t := range s.quota.Stats() {
		resp.Tenants = append(resp.Tenants, TenantStatsJSON{
			Tenant: t.Tenant, Budget: t.Budget, InUse: t.InUse,
			Admitted: t.Admitted, Throttled: t.Throttled,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, s.MetricsText())
	return http.StatusOK
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return writeErr(w, http.StatusServiceUnavailable, "draining")
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
	return http.StatusOK
}

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const fig1Src = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

// heavySrc is a 60-array transpose chain: over a second of DP and LP
// work on one CPU (but solvable — cost 0), so a millisecond deadline is
// guaranteed to fire mid-solve and a short drain window to overrun.
var heavySrc = heavyChain(60, 16)

// heavyChain builds a loop of `arrays` chained transposed updates, the
// slow-solve workload of the cancellation and drain tests.
func heavyChain(arrays, iters int) string {
	var b strings.Builder
	b.WriteString("real ")
	for i := 0; i < arrays; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "A%d(64,64)", i)
	}
	fmt.Fprintf(&b, "\ndo k = 1, %d\n", iters)
	for i := 1; i < arrays; i++ {
		fmt.Fprintf(&b, "  A%d = A%d + transpose(A%d)\n", i, i, i-1)
	}
	b.WriteString("enddo\n")
	return b.String()
}

func postJSON(t *testing.T, client *http.Client, url string, tenant string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func TestSolveEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	var cold SolveResponse
	decodeInto(t, resp, &cold)
	if cold.CacheHit {
		t.Error("cold solve reported a cache hit")
	}
	if cold.Report == "" || cold.SolveNs <= 0 {
		t.Errorf("cold solve: empty report or non-positive latency: %+v", cold)
	}

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src})
	var warm SolveResponse
	decodeInto(t, resp, &warm)
	if !warm.CacheHit {
		t.Error("second identical solve missed the cache")
	}
	if !warm.MemoHit {
		t.Error("second identical solve was not served by the source memo tier")
	}
	if warm.Cost != cold.Cost {
		t.Errorf("warm cost %d != cold cost %d", warm.Cost, cold.Cost)
	}

	// Option overrides are honored and rejected when unknown.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src, Strategy: "unroll"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unroll solve status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src, Strategy: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus strategy status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSolveIgnoresRetiredPartitionField: the request decoder is
// lenient, so a client that still sends the retired "partition" option
// gets its solve (every solve is cached by region now).
func TestSolveIgnoresRetiredPartitionField(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(map[string]any{"source": fig1Src, "partition": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got SolveResponse
	decodeInto(t, resp, &got)
	if resp.StatusCode != http.StatusOK || got.Report == "" {
		t.Errorf("status = %d, want 200 with a report", resp.StatusCode)
	}
}

func TestSolveRequestErrors(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{not json", http.StatusBadRequest},
		{"missing source", "{}", http.StatusBadRequest},
		{"parse error", `{"source":"this is not a program"}`, http.StatusUnprocessableEntity},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		decodeInto(t, resp, &e)
		if resp.StatusCode != tc.want || e.Error == "" {
			t.Errorf("%s: status = %d (want %d), error %q", tc.name, resp.StatusCode, tc.want, e.Error)
		}
	}

	// Method and route misses are 405/404, not handler panics.
	resp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status = %d, want 405", resp.StatusCode)
	}
}

// TestBatchStreamsAllSlots drives /v1/batch with a mixed batch (one slot
// a parse error) and checks the NDJSON protocol: one line per slot
// tagged with its input index, a trailing summary, failures isolated.
func TestBatchStreamsAllSlots(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	programs := []string{
		fig1Src,
		"real B(64,48), C(48,64)\nB = B + transpose(C)\n",
		"syntactically wrong",
		"real U(200), F(200)\ndo k = 1, 100\n  U(k:k+99) = U(k:k+99) + F(k:k+99)\nenddo\n",
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/batch", "", BatchRequest{Programs: programs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("batch content type = %q", ct)
	}

	seen := make(map[int]BatchSlot)
	var summary *BatchSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Summary {
			if summary != nil {
				t.Fatal("two summary lines")
			}
			summary = new(BatchSummary)
			if err := json.Unmarshal(line, summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if summary != nil {
			t.Fatal("slot line after the summary")
		}
		var slot BatchSlot
		if err := json.Unmarshal(line, &slot); err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[slot.Slot]; dup {
			t.Fatalf("slot %d reported twice", slot.Slot)
		}
		seen[slot.Slot] = slot
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(programs) {
		t.Fatalf("got %d slot lines, want %d", len(seen), len(programs))
	}
	if summary == nil || summary.Programs != len(programs) || summary.Failed != 1 {
		t.Fatalf("summary = %+v, want %d programs and 1 failure", summary, len(programs))
	}
	if seen[2].Error == "" {
		t.Error("bad slot 2 reported no error")
	}
	for _, i := range []int{0, 1, 3} {
		if seen[i].Error != "" {
			t.Errorf("slot %d failed: %s", i, seen[i].Error)
		}
	}
}

// TestTenantQuota429 exercises per-tenant admission: a batch heavier
// than the tenant's budget is rejected immediately with 429, an
// overridden tenant has its own budget, and throttles are counted.
func TestTenantQuota429(t *testing.T) {
	srv := New(Config{
		Workers:       2,
		TenantBudget:  2,
		TenantBudgets: map[string]int{"big": 8},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	batch := BatchRequest{Programs: []string{fig1Src, fig1Src, fig1Src, fig1Src}}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/batch", "", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e errorResponse
	decodeInto(t, resp, &e)
	if e.Error == "" {
		t.Error("429 without an error body")
	}

	// The same batch under the overridden tenant is admitted.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/batch", "big", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("big-tenant batch status = %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	stats := statsSnapshot(t, ts)
	var def, big *TenantStatsJSON
	for i := range stats.Tenants {
		switch stats.Tenants[i].Tenant {
		case "default":
			def = &stats.Tenants[i]
		case "big":
			big = &stats.Tenants[i]
		}
	}
	if def == nil || def.Throttled != 1 || def.InUse != 0 {
		t.Errorf("default tenant stats = %+v, want 1 throttled and 0 in use", def)
	}
	if big == nil || big.Throttled != 0 || big.Admitted != 1 || big.InUse != 0 {
		t.Errorf("big tenant stats = %+v, want 1 admitted, none throttled or in use", big)
	}
}

func statsSnapshot(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var stats StatsResponse
	decodeInto(t, resp, &stats)
	return stats
}

// TestCancellationMidSolve checks that a deadline firing mid-solve
// yields an error response — never a partial labeling — and leaks no
// scheduler lease.
func TestCancellationMidSolve(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: heavySrc, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out solve status = %d, want 504", resp.StatusCode)
	}
	var e errorResponse
	decodeInto(t, resp, &e)
	if e.Error == "" {
		t.Fatal("timed-out solve returned no error")
	}
	waitForIdle(t, srv)
}

func waitForIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Scheduler().Stats()
		if st.Leased == 0 && st.Waiting == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("scheduler never went idle: %+v", srv.Scheduler().Stats())
}

// TestMetricsScrape checks the Prometheus exposition: every line is a
// comment or a well-formed sample, the histogram is cumulative and
// consistent with its count, and the daemon's counters appear.
func TestMetricsScrape(t *testing.T) {
	srv := New(Config{Workers: 2, TenantBudget: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src}).Body.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src}).Body.Close()
	// One throttle for the tenant counter.
	postJSON(t, ts.Client(), ts.URL+"/v1/batch", "", BatchRequest{Programs: []string{fig1Src, fig1Src}}).Body.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+0-9.eE]+)$`)
	bucket := regexp.MustCompile(`^alignd_solve_duration_seconds_bucket\{le="([^"]+)"\} ([0-9]+)$`)
	var bucketCounts []int64
	values := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed metrics line %q", line)
		}
		if bm := bucket.FindStringSubmatch(line); bm != nil {
			n, _ := strconv.ParseInt(bm[2], 10, 64)
			bucketCounts = append(bucketCounts, n)
		}
		values[strings.SplitN(line, " ", 2)[0]] = m[2]
	}
	if len(bucketCounts) != len(latencyBounds)+1 {
		t.Fatalf("%d histogram buckets, want %d", len(bucketCounts), len(latencyBounds)+1)
	}
	for i := 1; i < len(bucketCounts); i++ {
		if bucketCounts[i] < bucketCounts[i-1] {
			t.Fatalf("histogram not cumulative at bucket %d: %v", i, bucketCounts)
		}
	}
	count, _ := strconv.ParseInt(values["alignd_solve_duration_seconds_count"], 10, 64)
	if count != 2 || bucketCounts[len(bucketCounts)-1] != count {
		t.Errorf("histogram count = %d (+Inf bucket %d), want 2 solves", count, bucketCounts[len(bucketCounts)-1])
	}
	for _, want := range []string{
		`alignd_requests_total{endpoint="solve",code="200"}`,
		"alignd_cache_hits_total",
		"alignd_source_memo_hits_total",
		"alignd_source_memo_computes_total",
		`alignd_frontend_phase_seconds_total{phase="parse"}`,
		"alignd_queue_depth",
		"alignd_inflight_leases",
		`alignd_tenant_throttled_total{tenant="default"}`,
		"alignd_draining",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// The warm repeat is served by the source memo tier in front of the
	// pipeline cache, so the hit lands in the memo counter.
	if v := values["alignd_source_memo_hits_total"]; v != "1" {
		t.Errorf("source memo hits = %s, want 1", v)
	}
	if v := values["alignd_source_memo_computes_total"]; v != "1" {
		t.Errorf("source memo computes = %s, want 1", v)
	}
	if v := values[`alignd_tenant_throttled_total{tenant="default"}`]; v != "1" {
		t.Errorf("default tenant throttles = %s, want 1", v)
	}
}

// TestDrainRejectsNewWork checks the quiescent-drain path: after Drain
// returns, solve/batch/healthz answer 503 while stats and metrics stay
// readable for the final flush.
func TestDrainRejectsNewWork(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/solve", "", SolveRequest{Source: fig1Src})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/batch", "", BatchRequest{Programs: []string{fig1Src}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}
	if !strings.Contains(srv.MetricsText(), "alignd_draining 1") {
		t.Error("metrics do not report draining")
	}
	if !statsSnapshot(t, ts).Draining {
		t.Error("stats do not report draining")
	}
}

// TestDrainDuringRequests drains while stats and health requests keep
// arriving, as they do when a drain waits on a slow solve: the in-flight
// count must neither race Drain (checked under -race) nor keep Drain
// from returning once the requests stop.
func TestDrainDuringRequests(t *testing.T) {
	srv := New(Config{Workers: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
			}
		}([]string{"/v1/stats", "/healthz"}[i%2])
	}
	time.Sleep(5 * time.Millisecond)
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(0) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the requests stopped")
	}
}

// TestDrainCancelsOverdueWork starts a solve that cannot finish inside
// the drain window and checks the hard-cancel path: Drain reports the
// forced stop, the request gets an error (not a partial result), and
// every lease and quota slot is returned.
func TestDrainCancelsOverdueWork(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		body   SolveResponse
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source":%q}`, heavySrc)))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var r result
		r.status = resp.StatusCode
		json.NewDecoder(resp.Body).Decode(&r.body)
		done <- r
	}()

	deadline := time.Now().Add(10 * time.Second)
	for srv.Scheduler().Stats().Leased == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Scheduler().Stats().Leased == 0 {
		t.Fatal("heavy solve never started")
	}

	if err := srv.Drain(20 * time.Millisecond); err == nil {
		t.Fatal("Drain with overdue work returned nil, want forced-cancel error")
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("request error: %v", r.err)
	}
	if r.status == http.StatusOK {
		t.Fatalf("hard-canceled solve returned 200 with body %+v", r.body)
	}
	waitForIdle(t, srv)
	for _, ten := range srv.quota.Stats() {
		if ten.InUse != 0 {
			t.Errorf("tenant %q still holds %d slots after drain", ten.Tenant, ten.InUse)
		}
	}
}

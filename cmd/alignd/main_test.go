package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const fig1Src = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

// heavyChain builds a loop of chained transposed updates — over a
// second of solver work on one CPU, so a drain window reliably overlaps
// it.
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

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// buildAlignd compiles the daemon once per test run, with -race when
// the test binary itself is instrumented.
func buildAlignd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "alignd-test")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "alignd")
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", buildPath, ".")
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

// daemon is one spawned alignd child: its base URL, a live stderr tail,
// and the exit-code plumbing.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer // guarded by mu
	mu     sync.Mutex
	exited chan error
}

// startDaemon spawns alignd on an OS-assigned port and waits for its
// "listening on" line.
func startDaemon(t *testing.T, extraArgs ...string) *daemon {
	t.Helper()
	bin := buildAlignd(t)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer), exited: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.exited
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "alignd: listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its listen address")
	}
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// wait blocks for process exit and returns its exit code.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case err := <-d.exited:
		d.exited <- err // keep Cleanup's receive alive
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("daemon exit: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit")
	}
	return -1
}

func postSolve(base, src string, timeout time.Duration) (*http.Response, error) {
	body, _ := json.Marshal(map[string]string{"source": src})
	client := &http.Client{Timeout: timeout}
	return client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
}

// TestServeSolveAndSIGTERMDrain is the end-to-end binary smoke: HTTP
// solve, metrics scrape, then SIGTERM → drain logs, final metrics
// flush, exit 0.
func TestServeSolveAndSIGTERMDrain(t *testing.T) {
	d := startDaemon(t)

	resp, err := postSolve(d.base, fig1Src, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var solved struct {
		Cost   int64  `json:"cost"`
		Report string `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || solved.Report == "" {
		t.Fatalf("solve: status %d, report %q", resp.StatusCode, solved.Report)
	}

	mresp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	m.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(m.String(), `alignd_requests_total{endpoint="solve",code="200"} 1`) {
		t.Errorf("metrics scrape missing the solve counter:\n%s", m.String())
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit code %d after SIGTERM, want 0\nstderr:\n%s", code, d.stderrText())
	}
	logs := d.stderrText()
	for _, want := range []string{"alignd: draining", "alignd_requests_total", "alignd: drained"} {
		if !strings.Contains(logs, want) {
			t.Errorf("drain logs missing %q:\n%s", want, logs)
		}
	}
}

// TestSIGTERMWaitsForInflight sends SIGTERM while a slow solve is in
// flight: the solve must complete with 200, late arrivals must see 503,
// and the daemon must still exit 0. The drain timeout matches the
// client's 2-minute timeout for the heavy solve: under the race
// detector heavyChain(60, 16) runs close to alignd's 30 s default, and
// the drain must not hard-cancel the very solve it is waiting for.
func TestSIGTERMWaitsForInflight(t *testing.T) {
	d := startDaemon(t, "-workers", "1", "-drain-timeout", "2m")

	type outcome struct {
		status int
		err    error
	}
	heavy := make(chan outcome, 1)
	go func() {
		resp, err := postSolve(d.base, heavyChain(60, 16), 2*time.Minute)
		if err != nil {
			heavy <- outcome{err: err}
			return
		}
		resp.Body.Close()
		heavy <- outcome{status: resp.StatusCode}
	}()

	// Wait until the solve holds a lease, then signal.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Scheduler struct{ Leased int }
		}
		json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if stats.Scheduler.Leased > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// While the drain holds the daemon open for the heavy solve, new
	// work is rejected with 503.
	saw503 := false
	for !saw503 {
		resp, err := postSolve(d.base, fig1Src, 10*time.Second)
		if err != nil {
			break // listener closed: drain finished before we got in
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("unexpected status %d during drain", resp.StatusCode)
		}
	}
	if !saw503 {
		t.Log("drain finished before a 503 could be observed (slow machine?)")
	}

	h := <-heavy
	if h.err != nil || h.status != http.StatusOK {
		t.Fatalf("in-flight solve during drain: status %d err %v", h.status, h.err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr:\n%s", code, d.stderrText())
	}
}

// TestFlagErrors: bad flags must fail fast with exit 2.
func TestFlagErrors(t *testing.T) {
	bin := buildAlignd(t)
	for _, args := range [][]string{
		{"-strategy", "bogus"},
		{"-tenant-budgets", "no-equals"},
		{"positional"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("alignd %v: err %v (want exit 2)\n%s", args, err, out)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// buildAlignc compiles the driver once per test run, with -race when
// the test binary itself is instrumented.
func buildAlignc(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "alignc-test")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "alignc")
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

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodSrc = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

// heavyChainSrc builds a chained-transpose loop that takes over a
// second to solve on one CPU, so a signal reliably lands mid-batch.
func heavyChainSrc(arrays, iters int) string {
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

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run: %v", err)
	}
	return ee.ExitCode()
}

// TestBatchFailingSlotExitsNonZero is the exit-code contract: a batch
// with a failing slot must exit 1, print its ERROR row on stderr (never
// stdout), and still print cost rows and the summary for the rest.
func TestBatchFailingSlotExitsNonZero(t *testing.T) {
	bin := buildAlignc(t)
	dir := writeFiles(t, map[string]string{
		"a_good.dp": goodSrc,
		"b_bad.dp":  "this is not a program\n",
		"c_good.dp": "real B(64,48), C(48,64)\nB = B + transpose(C)\n",
	})
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-batch", filepath.Join(dir, "*.dp"))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 1 {
		t.Errorf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if strings.Contains(stdout.String(), "ERROR") {
		t.Errorf("ERROR row leaked to stdout:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "b_bad.dp") || !strings.Contains(stderr.String(), "ERROR") {
		t.Errorf("stderr missing the per-slot ERROR row:\n%s", &stderr)
	}
	for _, want := range []string{"a_good.dp", "c_good.dp", "exact cost", "batch: 3 programs (1 failed)", "cache:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, &stdout)
		}
	}
}

func TestBatchCleanRunExitsZero(t *testing.T) {
	bin := buildAlignc(t)
	dir := writeFiles(t, map[string]string{"a.dp": goodSrc, "b.dp": goodSrc})
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-batch", filepath.Join(dir, "*.dp"))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 0 {
		t.Errorf("exit code = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "batch: 2 programs (0 failed)") {
		t.Errorf("stdout missing the summary:\n%s", &stdout)
	}
}

// TestEditStreamRegionHits: -editstream needs no flag to cache by
// region, so every one-component edit of a 4-component program re-solves
// only the edited component and hits the other three. It compiles no
// file, so stderr must not announce the Figure 1 fallback.
func TestEditStreamRegionHits(t *testing.T) {
	bin := buildAlignc(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-editstream", "4")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	edits := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "edit ") || strings.HasPrefix(line, "edit stream:") {
			continue
		}
		edits++
		if !strings.Contains(line, "region hits 3/4") {
			t.Errorf("edit line does not read region hits 3/4: %q", line)
		}
	}
	if edits != 4 {
		t.Errorf("got %d edit lines, want 4:\n%s", edits, &stdout)
	}
	if strings.Contains(stderr.String(), "Figure 1") {
		t.Errorf("-editstream compiles no file, yet stderr names the Figure 1 fallback:\n%s", &stderr)
	}
}

// TestBatchDeadlineExitsNonZero: a fired -deadline must exit 1 and
// explain itself on stderr while the summary still prints.
func TestBatchDeadlineExitsNonZero(t *testing.T) {
	bin := buildAlignc(t)
	files := map[string]string{}
	for i := 0; i < 4; i++ {
		files[fmt.Sprintf("h%d.dp", i)] = heavyChainSrc(60, 16+i)
	}
	dir := writeFiles(t, files)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-batch", filepath.Join(dir, "*.dp"), "-workers", "1", "-deadline", "200ms")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if code := exitCode(t, cmd.Run()); code != 1 {
		t.Errorf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "deadline exceeded") {
		t.Errorf("stderr missing the deadline notice:\n%s", &stderr)
	}
	if !strings.Contains(stdout.String(), "batch: 4 programs") {
		t.Errorf("stdout missing the summary:\n%s", &stdout)
	}
}

// TestBatchSIGTERMDrains sends SIGTERM mid-batch: the run must drain
// (summary still printed, unfinished slots reported) and exit 1 — the
// same signal set alignd hooks, so orchestrated shutdowns are uniform.
func TestBatchSIGTERMDrains(t *testing.T) {
	bin := buildAlignc(t)
	files := map[string]string{}
	for i := 0; i < 6; i++ {
		files[fmt.Sprintf("h%d.dp", i)] = heavyChainSrc(60, 16+i)
	}
	dir := writeFiles(t, files)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-batch", filepath.Join(dir, "*.dp"), "-workers", "1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Land the signal while the first heavy solves are in flight (the
	// whole batch needs several seconds).
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("batch did not drain after SIGTERM\nstdout:\n%s\nstderr:\n%s", &stdout, &stderr)
	}
	if code := exitCode(t, err); code != 1 {
		t.Errorf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "batch: 6 programs") {
		t.Errorf("drained run lost its summary:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "unfinished") {
		t.Errorf("stderr missing the drain notice:\n%s", &stderr)
	}
}

// TestUsageFlagsDefined keeps the package doc's Usage block honest:
// every -flag it names must be defined by the built binary, as listed
// by its -h output.
func TestUsageFlagsDefined(t *testing.T) {
	bin := buildAlignc(t)
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	// The Usage block is the run of indented comment lines after
	// "// Usage:" and its blank comment line.
	var usage []string
	lines := strings.Split(string(src), "\n")
	for i, line := range lines {
		if line != "// Usage:" {
			continue
		}
		for _, l := range lines[i+2:] {
			if !strings.HasPrefix(l, "//\t") {
				break
			}
			usage = append(usage, l)
		}
		break
	}
	named := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(strings.Join(usage, "\n"), -1)
	if len(named) == 0 {
		t.Fatal("no flags found in the Usage block of main.go")
	}

	// The exit status is not checked: a failed run lists no flags, so
	// the loop below reports every named one as undefined.
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`).FindAllStringSubmatch(string(out), -1) {
		defined[m[1]] = true
	}
	for _, m := range named {
		if !defined[m[1]] {
			t.Errorf("Usage names -%s, which alignc -h does not define:\n%s", m[1], out)
		}
	}
}

package repro

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/adg"
	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/lp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current solver")

// goldenPrograms returns every program the golden test pins: the
// determinismSources (prefixed "src-") and testdata/batch/*.dp
// (prefixed "batch-"), keyed by golden file stem.
func goldenPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := make(map[string]string)
	for name, src := range determinismSources {
		progs["src-"+name] = src
	}
	files, err := filepath.Glob(filepath.Join("testdata", "batch", "*.dp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/batch/*.dp programs")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs["batch-"+strings.TrimSuffix(filepath.Base(f), ".dp")] = string(src)
	}
	return progs
}

// goldenReport renders the answer of one solve: the exact cost
// breakdown, the full per-edge cost table, and the alignment of every
// port. Effort counters and timings are left out: they describe how
// the answer was reached, not the answer.
func goldenReport(g *adg.Graph, ar *align.Result) string {
	var b strings.Builder
	b.WriteString("exact cost: " + cost.Exact(g, ar.Assignment).String() + "\n")
	b.WriteString(cost.Report(g, ar.Assignment, 0))
	b.WriteString("alignments:\n")
	b.WriteString(ar.Assignment.String())
	return b.String()
}

// TestGoldenReports pins the answers of the pipeline byte for byte:
// every program in determinismSources and testdata/batch, solved at
// DefaultOptions, with every offset LP forced onto the dense tableau,
// and with the state-space-search strategy (whose descent starts from
// the kept, presolved RLP's vertex), must reproduce the cost report and
// assignment recorded under testdata/golden. Degenerate RLPs have several optimal
// vertices, so this is what catches a solver change that moves a
// pivot choice. Regenerate with `go test -run TestGoldenReports -update .`
// only when an answer change is intended.
func TestGoldenReports(t *testing.T) {
	progs := goldenPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	modes := []struct {
		name string
		mod  func(*align.Options)
	}{
		{"default", func(*align.Options) {}},
		{"dense", func(o *align.Options) { o.Offset.Engine = lp.EngineDense }},
		{"search", func(o *align.Options) { o.Offset.Strategy = align.StrategySingle }},
	}
	for _, name := range names {
		for _, mode := range modes {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				g := build.MustBuild(lang.MustAnalyze(lang.MustParse(progs[name])))
				aopts := DefaultOptions().alignOptions()
				mode.mod(&aopts)
				ar, err := align.Align(g, aopts)
				if err != nil {
					t.Fatal(err)
				}
				got := goldenReport(g, ar)
				path := filepath.Join("testdata", "golden", name+"."+mode.name+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (generate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("%s differs from %s:\n--- want\n%s\n--- got\n%s", name, path, want, got)
				}
			})
		}
	}
}

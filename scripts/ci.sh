#!/bin/sh
# Tier-1 gate: formatting, static checks, build, tests, and the race
# detector over the concurrent packages. Run from the repository root
# (or via `make tier1`). Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
# Includes the steady-state allocation gates (TestAxisStrideAllocs,
# TestBatchThroughputAllocs, TestOffsetSolverPresolve*Allocs,
# TestColdOffsetsAllocs, TestKeptOffsetsAllocs with its fig1,
# spreadloop and rank4Src legs, TestNodeTableAllocs,
# TestFrontendAllocs, TestHitPathZeroAlloc) next to their benchmarks.
go test ./...

echo "== perfbench (separate module: vet and test against this tree's API)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (align, lp, root)"
go test -race ./internal/align/... ./internal/lp/... .

echo "== go test -race (batch engine: cache, singleflight, scheduler)"
go test -race -run 'TestCache|TestAlignSingleflight|TestScheduler|TestAlignBatch|TestScratch|TestBatchDeterminism' \
    ./internal/align/ .

echo "== go test -race (differential: dense vs sparse vs network vs presolved)"
go test -race -run Differential ./internal/align/ ./internal/lp/

echo "== go test -race (robustness: cancellation, panic isolation, budgets)"
go test -race -run 'Cancel|Panic|Budget' ./...

echo "== go test -race (serving: alignd daemon, quotas, drain; alignc exit codes)"
# The cmd tests build their child binaries with -race to match, so this
# covers the whole SIGTERM drain path under the detector: HTTP solve,
# streaming batch, quota 429s, drain 503s, and clean exits.
go test -race ./internal/service/ ./cmd/alignd/ ./cmd/alignc/

echo "== loadtest smoke (in-process daemon, concurrent clients, leak check)"
go run ./cmd/alignd/loadtest -self -clients 200 -requests 4 -corpus 16

echo "== fuzz smoke (lexer/parser/sema, 10s each; one -fuzz target per run)"
go test -run='^$' -fuzz=FuzzLexer -fuzztime=10s ./internal/lang
go test -run='^$' -fuzz=FuzzParser -fuzztime=10s ./internal/lang
go test -run='^$' -fuzz=FuzzSema -fuzztime=10s ./internal/lang

echo "== bench smoke (1x: benchmarks must build, run, and hold their gates)"
go test -run=NONE -bench=. -benchtime=1x .

echo "== go test -race (front end: memo determinism, hit path)"
go test -race -run 'TestHitPathZeroAlloc|TestMemoDeterminism' .

echo "tier1: OK"

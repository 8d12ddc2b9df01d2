GO ?= go

.PHONY: all build test tier1 race bench fmt vet

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the gate every change must keep green: formatting, vet,
# build, the full test suite, the race detector over the packages with
# internal concurrency (the offset worker pool and DP multi-start in
# align, the arena/warm-start machinery in lp), and a 1x bench smoke so
# benchmark code (and its gated speedup assertions) cannot bit-rot.
tier1:
	./scripts/ci.sh

race:
	$(GO) test -race ./internal/align/... ./internal/lp/... .

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

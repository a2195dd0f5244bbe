# Make targets mirror exactly what CI runs (.github/workflows/ci.yml) so
# humans and the workflow can never drift apart.

GO       ?= go
SCALE    ?= mid
WORKERS  ?= 0
FUZZTIME ?= 10s

.PHONY: all build test race fuzz bench fmt vet lint inline examples identity sweep

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz every Fuzz* target in the repo for FUZZTIME each (`go test` runs
# only their seed corpora). go test fuzzes one target per invocation, so
# the targets are listed from the test files; a failing input is saved
# under the package's testdata/fuzz for a regression test.
fuzz:
	@set -e; for file in $$(grep -rl --include='*_test.go' --exclude-dir=testdata '^func Fuzz' .); do \
		for f in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$f ($$(dirname $$file))"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$(dirname $$file); \
		done; \
	done

# Every example, each under a second; an example whose claim does not hold
# (multipath with no multi-successor node) exits non-zero.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/relabel
	$(GO) run ./examples/mobility
	$(GO) run ./examples/multipath

# Bench smoke: one iteration of every bench, so regressions in the bench
# harness itself surface quickly. It measures nothing — the repo's perf
# record is cmd/slrbench (BENCHMARK.json). Full runs: `go test -bench=. -benchmem .`
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# The analyzer fixtures under internal/analysis/testdata are deliberately
# pathological source and sit outside the repo's gofmt gate (the go tool
# already skips testdata directories for build/vet/test on its own).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# slrlint: the repo's determinism analyzers (internal/analysis), run one
# package at a time by go vet -vettool on the standard-library driver in
# internal/analysis/slrlint. Zero unsuppressed diagnostics is the bar;
# deliberate exceptions carry //slrlint:allow <analyzer> <reason>.
lint:
	$(GO) build -o bin/slrlint ./cmd/slrlint
	$(GO) vet -vettool=$(CURDIR)/bin/slrlint ./...

# Functions whose comments say they stay within the inliner's budget, as
# `-gcflags=-m=2` names them; a generic method by its shape
# instantiation, the one its callers in other packages inline. rcommon
# instantiates no IDTable itself, so IDTable.Get is priced where olsr
# instantiates it (for its neighbor table, the only IDTable olsr has),
# under its package-qualified name. olsr's topoOf and routeTo are the
# dense-table lookups of every TC heard and every data packet forwarded.
# sim's Span converts every frame's air time and every pacer draw.
# `make inline` fails unless the compiler reports each one `can inline`.
INLINED := \
	'Span' \
	'\(\*Channel\)\.station' \
	'\(\*Channel\)\.Busy' \
	'\(\*Channel\)\.IdleAt' \
	'rcommon\.\(\*IDTable\[go\.shape\..*\]\)\.Get' \
	'\(\*Protocol\)\.topoOf' \
	'\(\*Protocol\)\.routeTo'

inline:
	@out=$$($(GO) build -gcflags=-m=2 ./internal/sim ./internal/radio ./internal/routing/rcommon ./internal/routing/olsr 2>&1) || { echo "$$out"; exit 1; }; \
	status=0; for f in $(INLINED); do \
		if ! echo "$$out" | grep -qE ": can inline $$f with cost"; then \
			echo "not within the inlining budget: $$f"; echo "$$out" | grep -E "inline $$f" | cut -c1-200; status=1; \
		fi; \
	done; exit $$status

# Byte-identity against a base revision: slrsim's output from the working
# tree against BASE's on a fixed list of runs, SAME or DIFF per run; any
# DIFF fails (scripts/identity.sh lists the runs).
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	sh scripts/identity.sh $(BASE)

# Regenerate the paper's Table I and Figures 3-7 on the all-cores trial
# runner. SCALE=full for the paper's exact setup: the whole grid at one
# trial per cell took between 1 m 40 s and 5 m 42 s wall on 2-vCPU hosts
# (5 m 38 s on the latest measurement), so the paper's 10 trials take
# about 17-57 minutes (README). -force: re-running the target
# deliberately regenerates the results file (the binary otherwise
# refuses to clobber a non-empty sweep output).
sweep:
	$(GO) run ./cmd/experiments -scale $(SCALE) -workers $(WORKERS) -force \
		-jsonl results-$(SCALE).jsonl

# Tier-1 verification plus the race/benchmark targets CI runs.
#
#   make            # build + test (tier-1)
#   make race       # vet + race-detector test sweep (the CI gate)
#   make lint       # gofmt + vet static checks (the CI lint gate)
#   make bench-smoke # one iteration of every kernel benchmark in every package, flow.BenchmarkMeasureAfterSplit included (CI: catches bit-rot)
#   make serve-smoke # composition-server load harness (determinism + zero rebuilds) under -race
#   make eco-smoke  # ECO-replay load harness (bank/debank rounds) under -race
#   make eco-seeds  # ECO harness at the benchmark's settings on the stream seeds that once rebuilt
#   make scale-smoke # Scale 5 paper flow on all profiles with a peak-RSS bound
#   make bench-module # vet + test the separate benchmark/ module against this tree
#   make examples-smoke # run every program under examples/ (fails on a non-zero exit)
#   make cli-smoke  # drive mbrstats, benchgen and mbrcompose end to end, check the -scale/-method/-bound guards (fails on a wrong exit code), mbrstats -json at GOMAXPROCS 1 vs 2 and mbrcompose D1 and D4 output at -workers 1 vs 2
#   make fuzz       # every fuzz target (FUZZTIME=5s for a smoke pass)
#   make golden     # regenerate flow golden files after an intended change
#   make loc        # production and _test.go Go line counts outside benchmark/

GO ?= go

.PHONY: all build test race lint bench-smoke bench-module examples-smoke cli-smoke serve-smoke eco-smoke eco-seeds scale-smoke golden fuzz loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Stdlib-only static analysis: the toolchain ships gofmt and vet, so the
# gate needs no network or third-party installs. gofmt -l prints offending
# files; the grep inverts that into a failing exit code with the list shown.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# benchmark/ is its own Go module (it replaces repro with ../), so the root
# build and test never compile it. Vetting and testing it here catches a
# production API change that breaks the benchmark driver.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# go build ./... compiles the examples but nothing else runs them. Each one
# drives the public packages (compat.Build among them) outside the flow and
# exits non-zero when a step it drives fails.
examples-smoke:
	@set -e; for e in ./examples/*/; do \
		echo "examples: $$e"; \
		$(GO) run $$e > /dev/null; \
	done

# Nothing under cmd/ has a test. This builds the inspection, generation,
# flow and serving CLIs, runs the first three on small profiles (benchgen
# piped into mbrstats included) and fails on any wrong exit code: each run
# must exit 0, and an invalid flag must be rejected with exit code 2: a
# -scale below 1 by mbrstats and by mbrserved -selftest, and a -method
# other than ilp/greedy or a -bound outside 1..64 by mbrcompose, before it
# generates anything. It fails unless mbrstats -profile D1 -passes 3 -json
# (the one CLI that builds the compat graph and composes outside the flow;
# its JSON holds no wall time) prints the same bytes at GOMAXPROCS=1 and
# GOMAXPROCS=2. It also runs mbrcompose -profile D1 and -profile D4
# at -workers 1 (one composition worker, measure syncs its engines in
# sequence) and -workers 2 (two shard workers placing MBRs concurrently,
# concurrent syncs) and fails unless each profile's two tables match once
# the Exec wall-time column is cut. pipefail makes a failing benchgen or mbrcompose fail the pipe.
cli-smoke: SHELL := /bin/bash
cli-smoke: .SHELLFLAGS := -o pipefail -ec
cli-smoke:
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin" ./cmd/mbrstats ./cmd/benchgen ./cmd/mbrcompose ./cmd/mbrserved; \
	echo "cli: mbrstats -profile D1 -passes 3"; \
	"$$bin/mbrstats" -profile D1 -passes 3 > /dev/null; \
	echo "cli: mbrstats -profile D1 -passes 3 -json at GOMAXPROCS=1 and 2 (must match)"; \
	GOMAXPROCS=1 "$$bin/mbrstats" -profile D1 -passes 3 -json > "$$bin/p1.json"; \
	GOMAXPROCS=2 "$$bin/mbrstats" -profile D1 -passes 3 -json > "$$bin/p2.json"; \
	if ! diff "$$bin/p1.json" "$$bin/p2.json"; then echo "cli: mbrstats -json differs between GOMAXPROCS 1 and 2"; exit 1; fi; \
	echo "cli: benchgen -profile D2 | mbrstats -design /dev/stdin"; \
	"$$bin/benchgen" -profile D2 | "$$bin/mbrstats" -design /dev/stdin > /dev/null; \
	echo "cli: mbrcompose -profile D1"; \
	"$$bin/mbrcompose" -profile D1 > /dev/null; \
	noexec() { sed -E '/^[^ ]+ +Ours /s/ +[^ ]+$$//'; }; \
	for p in D1 D4; do \
		echo "cli: mbrcompose -profile $$p -workers 1 and -workers 2 (must match but for Exec)"; \
		"$$bin/mbrcompose" -profile $$p -workers 1 | noexec > "$$bin/w1.txt"; \
		"$$bin/mbrcompose" -profile $$p -workers 2 | noexec > "$$bin/w2.txt"; \
		if ! diff "$$bin/w1.txt" "$$bin/w2.txt"; then echo "cli: $$p output differs between -workers 1 and 2"; exit 1; fi; \
	done; \
	exit2() { \
		echo "cli: $$* (must exit 2)"; \
		rc=0; "$$bin/$$1" "$${@:2}" > /dev/null 2>&1 || rc=$$?; \
		if [ "$$rc" -ne 2 ]; then echo "cli: $$* exited $$rc, want 2"; exit 1; fi; \
	}; \
	exit2 mbrstats -profile D1 -scale 0; \
	exit2 mbrserved -selftest -scale 0; \
	exit2 mbrcompose -profile D1 -method foo; \
	exit2 mbrcompose -profile D1 -bound 0; \
	exit2 mbrcompose -profile D1 -bound -3; \
	exit2 mbrcompose -profile D1 -bound 65

# A reduced run of the composition server's concurrent load harness
# (cmd/mbrserved -selftest): deterministic edit streams over HTTP, every
# stream checked byte-for-byte against a local replay oracle, zero
# retained-engine rebuilds allowed in the steady-state window. -race so
# the writer/reader locking is exercised under the detector.
serve-smoke:
	$(GO) run -race ./cmd/mbrserved -selftest -sessions 2 -batches 20

# The ECO-replay profile of the same harness: logic edits interleaved with
# bank (merge edits), debank (split edits), compose and slack-driven
# decompose rounds. The same guarantees must hold with structural ops in
# the stream — byte-identical oracle replay and zero steady-state
# rebuilds — and -race exercises the session locking around the passes.
eco-smoke:
	$(GO) run -race ./cmd/mbrserved -selftest -eco

# The ECO harness with the benchmark's serve_eco settings (D1@20, 150
# batches, 2 sessions, 1 worker, no readers) on the stream seeds that once
# paid steady-state rebuilds, when measures still updated the
# compatibility graph. Built once, run without -race (~8 s a seed); any
# rebuild or oracle mismatch exits non-zero.
ECO_SEEDS = 3 7 10 12 24 29 30 33 40

eco-seeds:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin" ./cmd/mbrserved; \
	for s in $(ECO_SEEDS); do \
		echo "eco-seeds: seed $$s"; \
		"$$bin/mbrserved" -selftest -eco -profile D1 -scale 20 -batches 150 \
			-sessions 2 -workers 1 -readers 0 -seed $$s > /dev/null; \
	done

# End-to-end scale run: Table 1 at Scale 5 (a fifth of the paper's cell
# counts), i.e. the full paper flow (generate, STA, compat, compose, CTS,
# route, useful skew, sizing) on all five profiles in one process, with its
# peak RSS asserted under 1 GB (an unreadable RSS fails too; the run peaks
# at roughly 290-400 MB). Catches both wall-time blowups (CI's job timeout)
# and memory regressions anywhere in the pipeline.
scale-smoke:
	$(GO) run ./cmd/paperrepro -table1 -scale 5 -maxrss-mb 1024

golden:
	$(GO) test ./internal/flow -run TestGolden -update

# Every fuzz target, as package:Target pairs. FUZZTIME shortens the run
# (CI's fuzz-smoke uses a few seconds). A listed target that no longer
# exists fails the run: go test -fuzz on an unmatched name only warns, so
# each name is first checked against go test -list.
FUZZ_TARGETS = \
	./internal/clique:FuzzEnumerateSubCliques \
	./internal/route:FuzzEstimateDeltaEquivalence \
	./internal/ilp:FuzzSolveCoverMatchesBruteForce \
	./internal/core:FuzzRegIndexMatchesScan \
	./internal/core:FuzzClosedFormMatchesSimplex \
	./internal/netlist:FuzzTouchedRecordMatchesOracle \
	./internal/place:FuzzRowSearchMatchesScan \
	./internal/sta:FuzzStructuralDeltaMatchesFull \
	./internal/compat:FuzzSweepMatchesPairScan \
	./internal/flow:FuzzEditDecode \
	./internal/flow:FuzzSessionOps
FUZZTIME ?= 30s

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		if ! $(GO) test -list "^$$name\$$" $$pkg | grep -qx "$$name"; then \
			echo "fuzz: $$name not found in $$pkg"; exit 1; \
		fi; \
		echo "fuzz: $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME); \
	done

# The line counts the design-quality aim is measured by: Go outside the
# separate benchmark/ module (and outside hidden directories such as the
# benchmark's build cache), production files and _test.go files apart.
loc:
	@files() { find . \( -path ./benchmark -o -path './.*' \) -prune -o -name '*.go' "$$@" -print0; }; \
	echo "production $$(files ! -name '*_test.go' | xargs -0 cat | wc -l)"; \
	echo "test $$(files -name '*_test.go' | xargs -0 cat | wc -l)"

# Tier-1 verification plus the race/benchmark targets CI runs.
#
#   make            # build + test (tier-1)
#   make race       # vet + race-detector test sweep (the CI gate)
#   make lint       # gofmt + vet static checks (the CI lint gate)
#   make bench      # paper-reproduction benchmark suite
#   make bench-smoke # one-iteration benchmark pass (CI: catches bit-rot)
#   make serve-smoke # composition-server load harness (determinism + zero rebuilds)
#   make eco-smoke  # ECO-replay load harness (bank/debank rounds) under -race
#   make scale-smoke # Scale:5 end-to-end sweep of all profiles with a peak-RSS bound
#   make fuzz       # every fuzz target (FUZZTIME=5s for a smoke pass)
#   make golden     # regenerate flow golden files after an intended change

GO ?= go

.PHONY: all build test race lint bench bench-smoke serve-smoke eco-smoke scale-smoke golden fuzz

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

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# A reduced run of the composition server's concurrent load harness
# (cmd/mbrserved -selftest): deterministic edit streams over HTTP, every
# stream checked byte-for-byte against a local replay oracle, zero
# retained-engine rebuilds allowed in the steady-state window.
serve-smoke:
	$(GO) run ./cmd/mbrserved -selftest -sessions 2 -batches 20

# The ECO-replay profile of the same harness: logic edits interleaved with
# bank (merge edits), debank (split edits), compose and slack-driven
# decompose rounds. The same guarantees must hold with structural ops in
# the stream — byte-identical oracle replay and zero steady-state
# rebuilds — and -race exercises the session locking around the passes.
eco-smoke:
	$(GO) run -race ./cmd/mbrserved -selftest -eco

# End-to-end scale sweep: generate, STA, compat and composition on all five
# profiles at Scale 5 (a fifth of the paper's cell counts), with the process
# peak RSS asserted under 4 GB. Catches both wall-time blowups (CI's job
# timeout) and memory regressions anywhere in the pipeline.
scale-smoke:
	$(GO) run ./cmd/scalebench -profiles D1,D2,D3,D4,D5 -scales 5 -maxrss-mb 4096 -out /dev/null

golden:
	$(GO) test ./internal/flow -run TestGolden -update

# Every fuzz target, as package:Target pairs. FUZZTIME shortens the run
# (CI's fuzz-smoke uses a few seconds). A listed target that no longer
# exists fails the run: go test -fuzz on an unmatched name only warns, so
# each name is first checked against go test -list.
FUZZ_TARGETS = \
	./internal/clique:FuzzEnumerateSubCliques \
	./internal/clique:FuzzParallelSubCliqueMerge \
	./internal/route:FuzzEstimateDeltaEquivalence \
	./internal/ilp:FuzzSolveCoverMatchesBruteForce
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

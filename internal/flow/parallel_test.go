package flow

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
)

// runCanonical generates the spec's design fresh (bench generation is
// seeded, so identical specs give identical designs), runs the full flow
// with the given worker count and returns the canonical report bytes.
func runCanonical(t *testing.T, spec bench.Spec, workers int) string {
	t.Helper()
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	rep, err := Run(b.Design, b.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Canonical()
}

// TestParallelDeterminism pins the contract of the parallel composition
// pipeline: the report is byte-identical for every worker count. The D1
// profile drives it (the paper's headline design); short mode shrinks the
// design so `go test -short ./...` stays fast.
func TestParallelDeterminism(t *testing.T) {
	scale := 100
	if testing.Short() {
		scale = 300
	}
	spec := bench.D1(bench.ProfileOpts{Scale: scale})
	want := runCanonical(t, spec, 1)
	if want == "" {
		t.Fatal("empty canonical report")
	}
	for _, workers := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := runCanonical(t, spec, workers)
			if got != want {
				t.Fatalf("report with Workers=%d differs from Workers=1:\n%s",
					workers, firstDiff(want, got))
			}
		})
	}
}

// TestParallelDeterminismAllProfiles extends the byte-identity check to all
// five benchmark profiles (acceptance: Workers=8 ≡ Workers=1 everywhere).
func TestParallelDeterminismAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestParallelDeterminism in short mode")
	}
	for _, spec := range bench.All(bench.ProfileOpts{Scale: 150}) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			seq := runCanonical(t, spec, 1)
			par := runCanonical(t, spec, 8)
			if seq != par {
				t.Fatalf("%s: Workers=8 report differs from Workers=1:\n%s",
					spec.Name, firstDiff(seq, par))
			}
		})
	}
}

// TestShardedComposeDeterminismAllProfiles is the scheduler's acceptance
// oracle: on all five benchmark profiles, the cost-ordered shard scheduler
// produces a report byte-identical to the serial path at worker counts
// {2, NumCPU}. Runs under the -race CI gate.
func TestShardedComposeDeterminismAllProfiles(t *testing.T) {
	scale := 150
	if testing.Short() {
		scale = 400
	}
	run := func(spec bench.Spec, workers int) string {
		t.Helper()
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		rep, err := Run(b.Design, b.Plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Canonical()
	}
	for _, spec := range bench.All(bench.ProfileOpts{Scale: scale}) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want := run(spec, 1)
			if want == "" {
				t.Fatal("empty canonical report")
			}
			for _, workers := range []int{2, runtime.NumCPU()} {
				if got := run(spec, workers); got != want {
					t.Fatalf("%s: Workers=%d report differs from Workers=1:\n%s",
						spec.Name, workers, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two canonical reports.
func firstDiff(a, b string) string {
	if a == b {
		return "(identical)"
	}
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(la), len(lb))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

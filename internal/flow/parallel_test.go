package flow

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
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

// TestConcurrentMeasureMatchesSequential drives two sessions on the same
// design through identical edit batches (moves, resizes, skews, merges and
// splits) with a Measure after each. At Workers=1 measure syncs its engines
// one after another; at Workers=2 it syncs them concurrently. The metrics
// and engine summaries must agree after every batch. Under -race this runs
// the engines' delta paths concurrently, which flow.Run, whose measures are
// rebuilds, does not reach.
func TestConcurrentMeasureMatchesSequential(t *testing.T) {
	for _, spec := range []bench.Spec{
		bench.D1(bench.ProfileOpts{Scale: 200}),
		bench.D4(bench.ProfileOpts{Scale: 300}),
	} {
		t.Run(spec.Name, func(t *testing.T) {
			var sess []*Session
			for _, workers := range []int{1, 2} {
				b, err := bench.Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Workers = workers
				s, err := NewSession(b.Design, b.Plan, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				sess = append(sess, s)
			}
			// apply runs one edit on both sessions; they must agree on
			// whether it applied.
			apply := func(e Edit) bool {
				_, err0 := sess[0].Apply([]Edit{e})
				_, err1 := sess[1].Apply([]Edit{e})
				if (err0 == nil) != (err1 == nil) {
					t.Fatalf("%s: Workers=1 error %v, Workers=2 error %v", e.Op(), err0, err1)
				}
				return err0 == nil
			}
			rng := rand.New(rand.NewSource(5))
			applied := map[string]int{}
			for batch := 0; batch < 12; batch++ {
				// Even batches are parametric (the engines' delta paths);
				// odd ones merge a probed pair and split a multi-bit
				// register (structural edits).
				if batch%2 == 0 {
					for _, e := range editBatch(sess[0].Design(), rng) {
						if apply(e) {
							applied[e.Op()]++
						}
					}
				} else {
					d := sess[0].Design()
					if a, b, ok := probeMergePair(d, rng); ok &&
						apply(MergeGroup(fmt.Sprintf("cm%d", batch), a, b)) {
						applied["merge"]++
					}
					if name, ok := pickMBR(d, rng); ok && apply(SplitInst(name)) {
						applied["split"]++
					}
				}
				var got [2]Metrics
				for i, s := range sess {
					m, err := s.Measure()
					if err != nil {
						t.Fatalf("batch %d: measure: %v", batch, err)
					}
					got[i] = m
				}
				if got[0] != got[1] {
					t.Fatalf("batch %d: metrics differ:\nWorkers=1 %+v\nWorkers=2 %+v", batch, got[0], got[1])
				}
				if e0, e1 := sess[0].Engines(), sess[1].Engines(); !reflect.DeepEqual(e0, e1) {
					t.Fatalf("batch %d: engine summaries differ:\nWorkers=1 %+v\nWorkers=2 %+v", batch, e0, e1)
				}
			}
			for _, op := range []string{"move", "resize", "skew", "merge", "split"} {
				if applied[op] == 0 {
					t.Errorf("no %s edit applied: %v", op, applied)
				}
			}
			for name, sum := range sess[1].Engines() {
				if name != "compat" && sum.Deltas == 0 {
					t.Errorf("no concurrent measure took the %s delta path: %+v", name, sum)
				}
			}
		})
	}
}

// editBatch returns a few moves, resizes and skews of random movable
// registers of d.
func editBatch(d *netlist.Design, rng *rand.Rand) []Edit {
	var regs []*netlist.Inst
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly {
			regs = append(regs, in)
		}
	}
	var edits []Edit
	for k := 0; k < 3; k++ {
		in := regs[rng.Intn(len(regs))]
		edits = append(edits, MoveTo(in.Name, in.Pos.X+d.SiteW*int64(rng.Intn(41)-20), in.Pos.Y))
	}
	for k := 0; k < 2; k++ {
		in := regs[rng.Intn(len(regs))]
		if alts := d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits); len(alts) > 1 {
			edits = append(edits, Resize(in.Name, alts[rng.Intn(len(alts))].Name))
		}
	}
	for k := 0; k < 2; k++ {
		in := regs[rng.Intn(len(regs))]
		edits = append(edits, Skew(in.Name, float64(rng.Intn(61)-30)))
	}
	return edits
}

// probeMergePair picks two movable single-bit registers of one class that
// share a clock net, starting the search at a random register.
func probeMergePair(d *netlist.Design, rng *rand.Rand) (string, string, bool) {
	var regs []*netlist.Inst
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() == 1 {
			regs = append(regs, in)
		}
	}
	off := rng.Intn(len(regs) + 1)
	for i := range regs {
		a := regs[(off+i)%len(regs)]
		for _, b := range regs {
			if b != a && b.RegCell.Class == a.RegCell.Class && d.ClockNet(b) == d.ClockNet(a) {
				return a.Name, b.Name, true
			}
		}
	}
	return "", "", false
}

// pickMBR returns a random movable multi-bit register of d.
func pickMBR(d *netlist.Design, rng *rand.Rand) (string, bool) {
	var mbrs []string
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() > 1 {
			mbrs = append(mbrs, in.Name)
		}
	}
	if len(mbrs) == 0 {
		return "", false
	}
	return mbrs[rng.Intn(len(mbrs))], true
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

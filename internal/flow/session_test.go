package flow

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// sessionBench generates a small D1 design and opens a session on it.
func sessionBench(t *testing.T, cfg Config) (*Session, *bench.Result) {
	t.Helper()
	res, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 200}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(res.Design, res.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, res
}

func TestConfigValidateRejectsEachField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = -1 }},
		// Config.Workers is the flow's one worker setting; a per-compose
		// value would be silently ignored, so any non-zero one is rejected.
		{"Compose.Workers", func(c *Config) { c.Compose.Workers = 2 }},
		{"Compose.MaxSubgraphNodes", func(c *Config) { c.Compose.MaxSubgraphNodes = 65 }},
		{"Compose.MaxSubgraphNodes", func(c *Config) { c.Compose.MaxSubgraphNodes = -3 }},
		{"Compose.ILPNodeLimit", func(c *Config) { c.Compose.ILPNodeLimit = -5 }},
		{"CTS.Tree.RecenterThresholdDBU", func(c *Config) { c.CTS.Tree.RecenterThresholdDBU = -100 }},
		{"Decompose.Budget", func(c *Config) { c.Decompose.Budget = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error does not name the field %s: %v", tc.name, err)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Compose.Workers = 2
	if err := cfg.Validate(); !strings.Contains(err.Error(), "Config.Workers") {
		t.Fatalf("Compose.Workers error does not point at Config.Workers: %v", err)
	}
}

func TestApplyEditOps(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	var r1, r2 *netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed {
			return
		}
		if r1 == nil {
			r1 = in
		} else if r2 == nil && in.RegCell.Class == r1.RegCell.Class {
			r2 = in
		}
	})
	if r1 == nil || r2 == nil {
		t.Fatal("no two movable registers")
	}

	res, err := s.Apply([]Edit{
		MoveTo(r1.Name, r1.Pos.X+500, r1.Pos.Y),
		Skew(r2.Name, 12),
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if res.Applied != 2 {
		t.Fatalf("applied %d, want 2", res.Applied)
	}
	if got := s.Design().InstByName(r1.Name).Pos.Y; got != r1.Pos.Y {
		t.Fatalf("move changed Y: %d", got)
	}

	// Resize to a same-class same-width alternate.
	alts := s.Design().Lib.CellsOfWidth(r1.RegCell.Class, r1.RegCell.Bits)
	if len(alts) > 1 {
		alt := alts[0]
		if alt.Name == r1.RegCell.Name {
			alt = alts[1]
		}
		if _, err := s.Apply([]Edit{Resize(r1.Name, alt.Name)}); err != nil {
			t.Fatalf("resize: %v", err)
		}
		if got := s.Design().InstByName(r1.Name).RegCell.Name; got != alt.Name {
			t.Fatalf("resize left cell %s, want %s", got, alt.Name)
		}
	}
}

func TestApplyStopsAtFirstFailure(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	var r1 *netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if r1 == nil && in.Kind == netlist.KindReg && !in.Fixed {
			r1 = in
		}
	})
	epoch0 := s.Epoch()
	res, err := s.Apply([]Edit{
		MoveTo(r1.Name, r1.Pos.X+200, r1.Pos.Y),
		MoveTo("no_such_instance", 1, 1),
		Skew(r1.Name, 9),
	})
	if err == nil {
		t.Fatal("expected error for unknown instance")
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d, want the 1-edit prefix", res.Applied)
	}
	if s.Epoch() == epoch0 {
		t.Fatal("prefix edit should have advanced the epoch")
	}

	// An empty envelope (the decoded form of a v1 record with an op the
	// decoder knows but no payload match, or a hand-built zero Edit) is
	// rejected at validation.
	if _, err := s.Apply([]Edit{{}}); err == nil ||
		!strings.Contains(err.Error(), "no operation") {
		t.Fatalf("empty envelope error = %v", err)
	}
	// An ambiguous envelope (two payloads set) is rejected, too.
	twoOps := Skew(r1.Name, 1)
	twoOps.Move = &MoveEdit{Inst: r1.Name, X: Coord(0), Y: Coord(0)}
	if _, err := s.Apply([]Edit{twoOps}); err == nil ||
		!strings.Contains(err.Error(), "exactly 1") {
		t.Fatalf("ambiguous envelope error = %v", err)
	}
	if _, err := s.Apply([]Edit{MergeGroup("m", r1.Name)}); err == nil {
		t.Fatal("merge with 1 member must fail")
	}
}

// TestRejectedMergeEditIsSideEffectFree pins the validate-then-commit
// contract of the merge edit: a rejected merge must not mutate the design
// at all (the serve journal skips failed edits, so any surviving mutation
// would break snapshot replay). Both the epoch, which advances on every
// tracked mutation, and the state dump, which records net sink order, must
// be unchanged.
func TestRejectedMergeEditIsSideEffectFree(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	var regs []*netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if in.Kind == netlist.KindReg && !in.Fixed && len(regs) < 3 {
			regs = append(regs, in)
		}
	})
	if len(regs) < 3 {
		t.Fatal("need three movable registers")
	}
	// The measure attaches every register's clock pin to a tree leaf net,
	// which the merge releases to its domain root.
	if _, err := s.Measure(); err != nil {
		t.Fatal(err)
	}
	pair, cross := mergeablePairs(s, 1, false), mergeablePairs(s, 1, true)
	if len(pair) == 0 || len(cross) == 0 {
		t.Fatal("need a mergeable and a cross-domain register pair")
	}
	other := otherClassCell(t, s, pair[0][0], 2)

	cases := []Edit{
		// MBR name collides with a live non-member instance.
		MergeGroup(regs[2].Name, regs[0].Name, regs[1].Name),
		// A group member listed twice.
		MergeGroup("mbr_dup", regs[0].Name, regs[0].Name),
		// Explicit position with only one coordinate.
		{Merge: &MergeEdit{Group: []string{regs[0].Name, regs[1].Name}, Name: "mbr_pos", X: Coord(0)}},
		// Members of two clock domains: no clock release can unify them.
		MergeGroup("mbr_domains", cross[0][0].Name, cross[0][1].Name),
		// An explicit cell of another functional class.
		{Merge: &MergeEdit{Group: []string{pair[0][0].Name, pair[0][1].Name}, Name: "mbr_class", Cell: other.Name}},
	}
	for _, e := range cases {
		epoch0, state0 := s.Epoch(), dumpState(t, s)
		if _, err := s.Apply([]Edit{e}); err == nil {
			t.Fatalf("merge %+v should have been rejected", e.Merge)
		}
		if got := s.Epoch(); got != epoch0 {
			t.Fatalf("rejected merge %s mutated the design: epoch %d -> %d", e.Merge.Name, epoch0, got)
		}
		if dumpState(t, s) != state0 {
			t.Fatalf("rejected merge %s changed the state dump", e.Merge.Name)
		}
	}
	for _, r := range regs[:2] {
		if s.Design().InstByName(r.Name) == nil {
			t.Fatalf("rejected merge destroyed %q", r.Name)
		}
	}

	// A move without both coordinates is rejected before mutating, too.
	epoch0 := s.Epoch()
	if _, err := s.Apply([]Edit{{Move: &MoveEdit{Inst: regs[0].Name, X: Coord(1)}}}); err == nil {
		t.Fatal("move without y must fail")
	}
	if got := s.Epoch(); got != epoch0 {
		t.Fatal("rejected move mutated the design")
	}
}

// dumpState returns the session's DumpState bytes.
func dumpState(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	if err := s.DumpState(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// otherClassCell returns a cell of at least bits bits whose functional
// class differs from in's only in its scan style.
func otherClassCell(t *testing.T, s *Session, in *netlist.Inst, bits int) *lib.Cell {
	t.Helper()
	class := in.RegCell.Class
	for k := lib.NoScan; k <= lib.ExternalScan; k++ {
		if k == class.Scan {
			continue
		}
		other := class
		other.Scan = k
		if w, ok := s.Design().Lib.SmallestWidthAtLeast(other, bits); ok {
			return s.Design().Lib.SelectCell(other, w, in.RegCell.DriveRes)
		}
	}
	t.Fatalf("no cell of another scan style for class %s", class.Key())
	return nil
}

// TestSessionMeasureMatchesRunBase pins the wrapper contract: flow.Run's
// Base row is exactly what a fresh session's first Measure reports.
func TestSessionMeasureMatchesRunBase(t *testing.T) {
	gen := func() *bench.Result {
		res, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 200}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := gen()
	rep, err := Run(r1.Design, r1.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2 := gen()
	s, err := NewSession(r2.Design, r2.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	met, err := s.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := met.Canonical(), rep.Base.Canonical(); got != want {
		t.Fatalf("session Measure differs from Run base:\nsession:\n%srun:\n%s", got, want)
	}
}

// mergePair merges the first scan-compatible single-bit pair into an MBR
// named name, probing candidates through the edit API (a rejected merge is
// side-effect free, so failed probes leave no trace). Returns the members.
func mergePair(t *testing.T, s *Session, name string) (string, string) {
	t.Helper()
	var regs []*netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if in.Kind == netlist.KindReg && !in.Fixed && in.Bits() == 1 && len(regs) < 40 {
			regs = append(regs, in)
		}
	})
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			if regs[i].RegCell.Class != regs[j].RegCell.Class {
				continue
			}
			if _, err := s.Apply([]Edit{MergeGroup(name, regs[i].Name, regs[j].Name)}); err == nil {
				return regs[i].Name, regs[j].Name
			}
		}
	}
	t.Fatal("no mergeable single-bit pair found")
	return "", ""
}

// TestApplySplitEdit pins the split edit end to end: merge two registers
// through the edit API, split the MBR back, and check the per-bit parts
// exist, the plan stays valid and the result names the victim.
func TestApplySplitEdit(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	mergePair(t, s, "split_me")

	sres, err := s.Apply([]Edit{SplitInst("split_me")})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(sres.Split) != 1 || sres.Split[0] != "split_me" {
		t.Fatalf("split = %v, want [split_me]", sres.Split)
	}
	if s.Design().InstByName("split_me") != nil {
		t.Fatal("split left the MBR alive")
	}
	for _, part := range []string{"split_me_b0", "split_me_b1"} {
		in := s.Design().InstByName(part)
		if in == nil {
			t.Fatalf("split part %s missing", part)
		}
		if in.Bits() != 1 {
			t.Fatalf("split part %s has %d bits", part, in.Bits())
		}
	}
	if err := s.Design().Validate(); err != nil {
		t.Fatalf("design invalid after merge+split: %v", err)
	}
}

// TestRejectedSplitEditIsSideEffectFree mirrors the merge contract for the
// inverse op: a rejected split edit must leave the design untouched (epoch
// witness), since the serve journal only persists applied edits.
func TestRejectedSplitEditIsSideEffectFree(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	a, b := mergePair(t, s, "mbr_sf")
	var other *netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if other == nil && in.Kind == netlist.KindReg && !in.Fixed &&
			in.Bits() == 1 && in.Name != a && in.Name != b {
			other = in
		}
	})
	if other == nil {
		t.Fatal("need a third movable single-bit register")
	}
	epoch0 := s.Epoch()

	cases := []Edit{
		SplitInst("no_such_mbr"), // unknown instance
		SplitInst(other.Name),    // single-bit: nothing to split
		{Split: &SplitEdit{Inst: "mbr_sf", Cell: "no_such_cell"}}, // unknown cell
		{Split: &SplitEdit{}}, // missing instance name
	}
	for _, e := range cases {
		if _, err := s.Apply([]Edit{e}); err == nil {
			t.Fatalf("split %+v should have been rejected", e)
		}
	}
	if got := s.Epoch(); got != epoch0 {
		t.Fatalf("rejected splits mutated the design: epoch %d -> %d", epoch0, got)
	}
	if s.Design().InstByName("mbr_sf") == nil {
		t.Fatal("rejected split destroyed the MBR")
	}
}

// TestMeasureNeverUpdatesCompat pins where the compatibility graph is
// built: only at compose sites. Measures after parametric and merge edits
// leave the session's build count at zero, and the composable-register
// count a measure reports (from the design-aggregate tracker) equals the
// node count of the graph the next compose pass sees, built here under
// ideal clocks right before the pass.
func TestMeasureNeverUpdatesCompat(t *testing.T) {
	s, _ := sessionBench(t, DefaultConfig())
	measure := func(ctx string, wantUpdates int) Metrics {
		t.Helper()
		m, err := s.Measure()
		if err != nil {
			t.Fatalf("%s: measure: %v", ctx, err)
		}
		if got := s.compatBuilds; got != wantUpdates {
			t.Fatalf("%s: compat builds %d, want %d", ctx, got, wantUpdates)
		}
		if got := s.Engines()["compat"].Updates; got != wantUpdates {
			t.Fatalf("%s: compat summary reports %d builds, want %d", ctx, got, wantUpdates)
		}
		return m
	}
	measure("base", 0)
	var r *netlist.Inst
	s.Design().Insts(func(in *netlist.Inst) {
		if r == nil && in.Kind == netlist.KindReg && !in.Fixed {
			r = in
		}
	})
	if _, err := s.Apply([]Edit{MoveTo(r.Name, r.Pos.X+500, r.Pos.Y), Skew(r.Name, 12)}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	measure("after move and skew", 0)
	mergePair(t, s, "measure_mbr")
	m := measure("after merge", 0)

	s.engs.sta.SetIdealClocks(true)
	if _, err := s.engs.sta.RunEndpoints(); err != nil {
		t.Fatal(err)
	}
	g := compat.BuildN(s.d, s.engs.sta, s.plan, s.cfg.Compat.Rules, s.cfg.Workers)
	s.engs.sta.SetIdealClocks(false)
	if n := len(g.Regs); n != m.CompRegs {
		t.Fatalf("measure reported %d composable registers, the compose pass's graph has %d", m.CompRegs, n)
	}
	if _, err := s.ComposePass(); err != nil {
		t.Fatalf("compose: %v", err)
	}
	if got := s.compatBuilds; got != 1 {
		t.Fatalf("compose pass ran %d compat builds, want 1", got)
	}
	measure("after compose", 1)
}

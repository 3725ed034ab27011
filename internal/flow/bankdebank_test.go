package flow

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
)

// TestGoldenBankDebank pins the bytes of every bank and debank path, which
// the default-flow goldens never run: (a) Run with the debank-all preset on
// a D4 design, whose decompose and restore stages both act, and (b) a D1
// session driven through merge and split edits, a budgeted decompose
// pass, a compose pass and a restore pass, with a measurement after each
// step and the SHA-256 of the final state dump.
func TestGoldenBankDebank(t *testing.T) {
	t.Run("run_D4_decompose_all", func(t *testing.T) {
		b, err := bench.Generate(bench.D4(bench.ProfileOpts{Scale: goldenScale}))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Decompose = DecomposeConfig{All: true}
		rep, err := Run(b.Design, b.Plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DecomposedMBRs == 0 || rep.RestoredMBRs == 0 {
			t.Fatalf("decomposed %d restored %d: both paths must act", rep.DecomposedMBRs, rep.RestoredMBRs)
		}
		checkGolden(t, "bankdebank_run_D4.golden", rep.Canonical())
	})
	t.Run("session_D1", func(t *testing.T) {
		s, _ := sessionBench(t, DefaultConfig())
		checkGolden(t, "bankdebank_session_D1.golden", bankDebankScript(t, s))
	})
}

// bankDebankScript drives s through every bank/debank entry point and
// returns a transcript of what each step did and measured.
func bankDebankScript(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	measure := func(label string) {
		m, err := s.Measure()
		if err != nil {
			t.Fatalf("%s: measure: %v", label, err)
		}
		fmt.Fprintf(&b, "after %s\n%s", label, m.Canonical())
	}
	apply := func(label string, edits ...Edit) {
		res, err := s.Apply(edits)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&b, "%s merged %v split %v\n", label, res.Merged, res.Split)
	}
	measure("open")

	d := s.Design()
	pairs := mergeablePairs(s, 3, false)
	if len(pairs) < 3 {
		t.Fatalf("found %d mergeable pairs, want 3", len(pairs))
	}
	wide := MergeGroup("bd_m1", pairs[1][0].Name, pairs[1][1].Name)
	class := pairs[1][0].RegCell.Class
	if c := d.Lib.SelectCell(class, 4, pairs[1][0].RegCell.DriveRes); c != nil {
		wide.Merge.Cell = c.Name
	}
	at := MergeGroup("bd_m2", pairs[2][0].Name, pairs[2][1].Name)
	at.Merge.X, at.Merge.Y = Coord(pairs[2][1].Pos.X), Coord(pairs[2][1].Pos.Y)
	apply("merge", MergeGroup("bd_m0", pairs[0][0].Name, pairs[0][1].Name), wide, at)
	measure("merge")

	var multi *netlist.Inst
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() >= 2 && !strings.HasPrefix(in.Name, "bd_") &&
			d.Lib.SelectCell(in.RegCell.Class, 1, in.RegCell.DriveRes) != nil {
			multi = in
			break
		}
	}
	if multi == nil {
		t.Fatal("no splittable multi-bit register")
	}
	apply("split", SplitInst("bd_m0"), SplitInst(multi.Name))
	measure("split")

	dres, err := s.DecomposePassWith(DecomposeConfig{Budget: 10, SlackThresholdPS: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "decompose victims %v parts %d regs %d->%d\n",
		dres.Victims, dres.Parts, dres.RegsBefore, dres.RegsAfter)
	measure("decompose")

	cres, err := s.ComposePass()
	if err != nil {
		t.Fatal(err)
	}
	writeMBRs(&b, cres)
	measure("compose")

	n, err := s.RestorePass()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "restored %d\n", n)
	measure("restore")

	h := sha256.New()
	if err := s.DumpState(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "state sha256 %x\n", h.Sum(nil))
	return b.String()
}

func writeMBRs(b *strings.Builder, cres *core.Result) {
	fmt.Fprintf(b, "compose regs %d->%d mbrs %d\n", cres.RegsBefore, cres.RegsAfter, len(cres.MBRs))
	for _, m := range cres.MBRs {
		fmt.Fprintf(b, "mbr %s cell %s pos %d,%d members %v\n", m.Inst.Name, m.Cell.Name, m.Pos.X, m.Pos.Y, m.Members)
	}
}

// mergeablePairs returns up to n disjoint pairs of movable single-bit
// registers that a merge edit accepts: same class, one clock root, the same
// reset, enable and scan-enable nets, and a scan-compatible merge order.
// With crossDomain set the pairs differ in clock root instead, so a merge
// of one fails on the clock alone. It reads the design only, so no probe
// edit is ever applied.
func mergeablePairs(s *Session, n int, crossDomain bool) [][2]*netlist.Inst {
	d, plan := s.Design(), s.Plan()
	var regs []*netlist.Inst
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() == 1 {
			regs = append(regs, in)
		}
	}
	used := map[netlist.InstID]bool{}
	var out [][2]*netlist.Inst
	for i := 0; i < len(regs) && len(out) < n; i++ {
		for j := i + 1; j < len(regs) && !used[regs[i].ID]; j++ {
			a, c := regs[i], regs[j]
			if used[c.ID] || a.RegCell.Class != c.RegCell.Class ||
				(d.ClockRootNet(d.ClockNet(a)) != d.ClockRootNet(d.ClockNet(c))) != crossDomain {
				continue
			}
			same := true
			for _, k := range []netlist.PinKind{netlist.PinReset, netlist.PinEnable, netlist.PinScanEnable} {
				same = same && d.ControlNet(a, k) == d.ControlNet(c, k)
			}
			if !same || (plan != nil && !plan.GroupCompatible(plan.MergeOrder([]netlist.InstID{a.ID, c.ID}))) {
				continue
			}
			used[a.ID], used[c.ID] = true, true
			out = append(out, [2]*netlist.Inst{a, c})
		}
	}
	return out
}

// FuzzSessionOps drives a D1 session through fuzzed ops, every one through
// Session.Do: move, resize, skew, merge and split edits, measures, compose
// passes, decompose passes (the zero config, which must be rejected,
// included) and restore passes. Instances come from a pool of every live
// register plus non-registers and an unknown name, picked near each other
// so that accepted merges, duplicates and cross-domain pairs all occur;
// cells may be of another class or width; positions are optional and may
// leave the core. A rejected op must leave the epoch and the state dump
// unchanged; after an accepted one the design and the scan plan must
// validate and every register a merge or split made must have its source
// registers' class.
//
// Each op starts with a selector byte: 0 mod 3 is a merge, 1 mod 3 a split,
// and 2 mod 3 picks the rest by sel/3 mod 8, so the bank/debank seeds
// decode as they do in FuzzBankDebankEdits.
func FuzzSessionOps(f *testing.F) {
	fuzzSessionOps(f, true, append(bankDebankSeeds,
		// Move, resize and skew edits, then compose, a zero-config and a
		// budgeted decompose, restore and a measure.
		[]byte{5, 3, 1, 200, 90, 8, 2, 5, 7, 11, 4, 0, 130, 14, 17, 0, 0, 17, 2, 100, 23, 2}))
}

// FuzzBankDebankEdits is FuzzSessionOps narrowed to merge and split edits
// and measures (every 2 mod 3 selector measures): the same harness, with
// no pass or parametric edit between the structural ones.
func FuzzBankDebankEdits(f *testing.F) { fuzzSessionOps(f, false, bankDebankSeeds) }

// bankDebankSeeds are merge, split and measure sequences; two once crashed.
var bankDebankSeeds = [][]byte{
	{2, 0, 0, 10, 0, 1, 1, 1},
	{2, 0, 2, 40, 0, 3, 5, 0, 1, 0, 0},
	{0, 0, 7, 1, 1, 0, 0, 2, 1, 3, 1},
	{2, 1, 0, 0, 2, 0, 0, 12, 30, 2, 0, 1, 20, 3},
	{2, 0, 1, 87, 0, 3, 8, 2, 0, 0, 5, 4, 9},
	// A merge of two clock domains after a measure, whose rejection once
	// reconnected the released clock pins at the end of their leaf nets'
	// sink lists.
	[]byte("1 1100801000"),
	// A merge into a cell of another functional class, once accepted.
	[]byte("\xdb\"00C20000"),
}

// fuzzSessionOps is the harness of both fuzz targets; allOps selects
// FuzzSessionOps's vocabulary.
func fuzzSessionOps(f *testing.F, allOps bool, seeds [][]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _ := sessionBench(t, DefaultConfig())
		d := s.Design()
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var cells []*lib.Cell
		seen := map[lib.FuncClass]bool{}
		for _, in := range d.Registers() {
			if c := in.RegCell.Class; !seen[c] {
				seen[c] = true
				for _, w := range d.Lib.Widths(c) {
					cells = append(cells, d.Lib.CellsOfWidth(c, w)...)
				}
			}
		}
		cellName := func() string {
			if c := next(); c%3 != 0 {
				return cells[c%len(cells)].Name
			}
			return ""
		}
		// coord maps a byte onto the core's span along one axis, stretched
		// by a tenth on each side so that some positions leave the core.
		coord := func(lo, hi int64) int64 {
			span := hi - lo
			return lo - span/10 + int64(next())*(span+span/5)/255
		}
		for step := 0; len(data) > 0 && step < 16; step++ {
			var pool []string
			d.Insts(func(in *netlist.Inst) {
				if in.Kind == netlist.KindReg || (in.Kind == netlist.KindComb && len(pool) < 3) {
					pool = append(pool, in.Name)
				}
			})
			pool = append(pool, "no_such_inst")
			pick := func() string { return pool[(next()*7+next()%8)%len(pool)] }
			var op Op
			var srcs []string
			edit := func(e Edit) { op = Op{Kind: OpEdits, Edits: []Edit{e}} }
			switch sel := next(); {
			case sel%3 == 0:
				m := &MergeEdit{Name: fmt.Sprintf("fz_m%d", step), Cell: cellName()}
				base := next() * 7
				for k := 2 + next()%3; k > 0; k-- {
					m.Group = append(m.Group, pool[(base+next()%8)%len(pool)])
				}
				if p := next(); p%2 == 1 {
					m.X, m.Y = Coord(d.Core.Lo.X+int64(p)*200), Coord(d.Core.Lo.Y+int64(p)*120)
				}
				edit(Edit{Merge: m})
				srcs = m.Group
			case sel%3 == 1:
				e := &SplitEdit{Inst: pick(), Cell: cellName()}
				edit(Edit{Split: e})
				srcs = []string{e.Inst}
			case !allOps:
				op = Op{Kind: OpMeasure}
			default:
				switch sel / 3 % 8 {
				case 0, 6:
					op = Op{Kind: OpMeasure}
				case 1:
					name := pick()
					x := coord(d.Core.Lo.X, d.Core.Hi.X)
					edit(MoveTo(name, x, coord(d.Core.Lo.Y, d.Core.Hi.Y)))
				case 2:
					name := pick()
					edit(Resize(name, cells[next()%len(cells)].Name))
				case 3:
					name := pick()
					edit(Skew(name, float64(next()-128)))
				case 4:
					op = Op{Kind: OpCompose}
				case 5:
					b := next()
					op = Op{Kind: OpDecompose, Decompose: &DecomposeConfig{
						Budget:           b % 4,
						SlackThresholdPS: float64(next()) * 8,
						All:              b >= 248,
					}}
				case 7:
					op = Op{Kind: OpRestore}
				}
			}
			classes := map[string]lib.FuncClass{}
			for _, name := range srcs {
				if in := d.InstByName(name); in != nil && in.RegCell != nil {
					classes[name] = in.RegCell.Class
				}
			}
			epoch0, state0 := s.Epoch(), dumpState(t, s)
			res, err := s.Do(op)
			if err != nil {
				if s.Epoch() != epoch0 || dumpState(t, s) != state0 {
					t.Fatalf("step %d: rejected %s op left a trace (%v)", step, opLabel(op), err)
				}
				continue
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("step %d: design invalid after %s: %v", step, opLabel(op), err)
			}
			if err := s.Plan().Validate(d); err != nil {
				t.Fatalf("step %d: plan invalid after %s: %v", step, opLabel(op), err)
			}
			if op.Kind == OpMeasure {
				if got, want := res.Metrics.Canonical(), batchMeasure(t, s).Canonical(); got != want {
					t.Fatalf("step %d: session measure differs from the batch measurement\nsession:\n%sbatch:\n%s", step, got, want)
				}
			}
			if res.Apply == nil {
				continue
			}
			var made []*netlist.Inst
			for _, name := range res.Apply.Merged {
				made = append(made, d.InstByName(name))
			}
			for _, name := range res.Apply.Split {
				d.Insts(func(in *netlist.Inst) {
					if strings.HasPrefix(in.Name, name+"_b") && in.Kind == netlist.KindReg {
						made = append(made, in)
					}
				})
			}
			for _, in := range made {
				for src, c := range classes {
					if in.RegCell.Class != c {
						t.Fatalf("step %d: %s has class %s, its source %s has %s",
							step, in.Name, in.RegCell.Class.Key(), src, c.Key())
					}
				}
			}
		}
	})
}

// batchMeasure measures the session's design the way measure does, but
// from batch walks and a fresh STA engine carrying the session's skews, so
// it shares no retained state with the session's engines.
func batchMeasure(t *testing.T, s *Session) Metrics {
	t.Helper()
	d := s.Design()
	eng := sta.New(d)
	d.Insts(func(in *netlist.Inst) {
		if sk := s.engs.sta.Skew(in.ID); sk != 0 {
			eng.SetSkew(in.ID, sk)
		}
	})
	res, err := eng.RunEndpoints()
	if err != nil {
		t.Fatalf("batch STA: %v", err)
	}
	cm := cts.Measure(d)
	regs := d.Registers()
	comp := 0
	for _, in := range regs {
		if _, excluded := compat.Exclusion(d, in); !excluded {
			comp++
		}
	}
	_, sigWL := d.Wirelength()
	return Metrics{
		AreaUM2:          float64(d.TotalArea()) / 1e6,
		Cells:            d.NumInsts(),
		TotalRegs:        len(regs),
		CompRegs:         comp,
		ClkBufs:          cm.Buffers,
		ClkCapPF:         cm.TotalCapFF / 1000,
		TNSNS:            -res.TNS / 1000,
		WNSPS:            res.WNS,
		FailingEndpoints: res.FailingEndpoints,
		TotalEndpoints:   res.TotalEndpoints,
		OverflowEdges:    route.Estimate(d, s.cfg.Route.Est).OverflowEdges(),
		WLClkMM:          float64(cm.WirelengthDBU) / 1e6,
		WLSigMM:          float64(sigWL) / 1e6,
	}
}

// opLabel names an op for a failure message: its kind, or its one edit's.
func opLabel(op Op) string {
	if op.Kind == OpEdits && len(op.Edits) == 1 {
		return op.Edits[0].Op()
	}
	return op.Kind
}

package flow

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/place"
)

func genSmall(t testing.TB, seed int64) *bench.Result {
	t.Helper()
	spec := bench.Spec{
		Name: "F", Seed: seed,
		NumRegs:           300,
		CombPerReg:        4,
		WidthMix:          map[int]float64{1: 0.5, 2: 0.25, 4: 0.15, 8: 0.1},
		NonComposableFrac: 0.3,
		ClusterSize:       10,
		GateGroups:        3,
		ScanChains:        4,
		OrderedChainFrac:  0.25,
		TargetUtil:        0.5,
		ClockPeriodPS:     1500,
	}
	res, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFullFlowShapes(t *testing.T) {
	b := genSmall(t, 11)
	rep, err := Run(b.Design, b.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Headline claims of Table 1, as shapes:
	if rep.Ours.TotalRegs >= rep.Base.TotalRegs {
		t.Fatalf("register count must drop: %d → %d", rep.Base.TotalRegs, rep.Ours.TotalRegs)
	}
	drop := 1 - float64(rep.Ours.TotalRegs)/float64(rep.Base.TotalRegs)
	if drop < 0.05 {
		t.Fatalf("register drop %.1f%% too small", drop*100)
	}
	if rep.Ours.ClkCapPF >= rep.Base.ClkCapPF {
		t.Fatalf("clock cap must drop: %.1f → %.1f pF", rep.Base.ClkCapPF, rep.Ours.ClkCapPF)
	}
	if rep.Ours.ClkBufs > rep.Base.ClkBufs {
		t.Fatalf("clock buffers must not grow: %d → %d", rep.Base.ClkBufs, rep.Ours.ClkBufs)
	}
	// "without adding any timing violations": failing endpoints and TNS not
	// meaningfully degraded. Our unbalanced toy CTS adds per-rebuild
	// insertion-delay noise the paper's production CTS doesn't have, so a
	// few endpoints of tolerance are allowed.
	tol := rep.Base.FailingEndpoints/10 + 3
	if rep.Ours.FailingEndpoints > rep.Base.FailingEndpoints+tol {
		t.Fatalf("failing endpoints grew: %d → %d",
			rep.Base.FailingEndpoints, rep.Ours.FailingEndpoints)
	}
	if rep.Ours.TNSNS > rep.Base.TNSNS*1.10+0.01 {
		t.Fatalf("TNS degraded: %.3f → %.3f ns", rep.Base.TNSNS, rep.Ours.TNSNS)
	}
	// Area must not grow meaningfully (MBRs are smaller than their parts).
	if rep.Ours.AreaUM2 > rep.Base.AreaUM2*1.01 {
		t.Fatalf("area grew: %.0f → %.0f µm²", rep.Base.AreaUM2, rep.Ours.AreaUM2)
	}
	if rep.Compose == nil || len(rep.Compose.MBRs) == 0 {
		t.Fatal("expected composed MBRs")
	}
}

func TestFlowLeavesDesignValid(t *testing.T) {
	b := genSmall(t, 12)
	d := b.Design
	if _, err := Run(d, b.Plan, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Plan.Validate(d); err != nil {
		t.Fatal(err)
	}
	// Placement legality: the whole design, CTS buffers included, must be
	// legal after the flow.
	if v := place.CheckLegal(d); len(v) != 0 {
		t.Fatalf("placement violations after flow: %d (first: %v)", len(v), v[0])
	}
}

func TestFlowBaseMetricsSane(t *testing.T) {
	b := genSmall(t, 13)
	rep, err := Run(b.Design, b.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Base
	if m.TotalRegs != 300 {
		t.Fatalf("TotalRegs = %d", m.TotalRegs)
	}
	if m.CompRegs <= 0 || m.CompRegs >= m.TotalRegs {
		t.Fatalf("CompRegs = %d of %d", m.CompRegs, m.TotalRegs)
	}
	if m.ClkBufs <= 0 {
		t.Fatal("base must have clock buffers")
	}
	if m.ClkCapPF <= 0 || m.AreaUM2 <= 0 || m.WLSigMM <= 0 || m.WLClkMM <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.TotalEndpoints == 0 {
		t.Fatal("no endpoints measured")
	}
}

func TestFlowGreedyVsILP(t *testing.T) {
	runWith := func(m core.Method) *Report {
		b := genSmall(t, 14)
		cfg := DefaultConfig()
		cfg.Compose.Method = m
		rep, err := Run(b.Design, b.Plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ilp := runWith(core.MethodILP)
	greedy := runWith(core.MethodGreedy)
	if ilp.Ours.TotalRegs > greedy.Ours.TotalRegs {
		t.Fatalf("ILP (%d regs) lost to greedy (%d regs)",
			ilp.Ours.TotalRegs, greedy.Ours.TotalRegs)
	}
}

func TestFlowDecomposeExisting(t *testing.T) {
	// A D4-like width mix (8-bit rich): decomposition must unlock extra
	// reductions relative to skipping the 8-bit MBRs.
	spec := bench.Spec{
		Name: "D4ish", Seed: 21,
		NumRegs:           300,
		CombPerReg:        4,
		WidthMix:          map[int]float64{1: 0.15, 2: 0.15, 4: 0.25, 8: 0.45},
		NonComposableFrac: 0.3,
		ClusterSize:       10,
		GateGroups:        3,
		ScanChains:        4,
		OrderedChainFrac:  0.25,
		TargetUtil:        0.5,
		ClockPeriodPS:     1500,
	}
	runWith := func(decompose bool) *Report {
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Decompose = DecomposeConfig{All: decompose}
		rep, err := Run(b.Design, b.Plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Design.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := b.Plan.Validate(b.Design); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := runWith(false)
	decomp := runWith(true)
	if decomp.DecomposedMBRs == 0 {
		t.Fatal("expected 8-bit MBRs to be decomposed")
	}
	if decomp.RestoredMBRs == 0 {
		t.Fatal("expected leftover bits to be restored")
	}
	// The paper proposes decomposition as future work without evaluating
	// it. Our finding (recorded in EXPERIMENTS.md): with the restore pass,
	// decompose-and-recompose lands within a few percent of not
	// decomposing — the bits freed from 8-bit MBRs rarely find better
	// external partners than the MBR they came from, and partially
	// consumed groups leave stranded singles. The test pins structural
	// guarantees (validity above) and the documented damage bounds.
	if decomp.Ours.ClkCapPF > plain.Ours.ClkCapPF*1.25 {
		t.Fatalf("decomposition clock-cap damage beyond documented bound: %.2f vs %.2f pF",
			decomp.Ours.ClkCapPF, plain.Ours.ClkCapPF)
	}
	if decomp.Ours.TotalRegs > plain.Base.TotalRegs+plain.Base.TotalRegs/20 {
		t.Fatalf("decomposition register damage beyond documented bound: %d vs base %d",
			decomp.Ours.TotalRegs, plain.Base.TotalRegs)
	}
}

func TestFlowNoSkewNoSizing(t *testing.T) {
	b := genSmall(t, 15)
	cfg := DefaultConfig()
	cfg.UsefulSkew = false
	cfg.Sizing = false
	rep, err := Run(b.Design, b.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkewedMBRs != 0 || rep.ResizedMBRs != 0 {
		t.Fatalf("optimizations ran despite being disabled: %+v", rep)
	}
	if rep.Ours.TotalRegs >= rep.Base.TotalRegs {
		t.Fatal("composition alone must still reduce registers")
	}
}

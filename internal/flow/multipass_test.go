package flow

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// runMultiPass opens a session on a D2 design at the given worker count,
// measures it, runs three composition passes and measures again. It returns
// the per-pass results, the canonical bytes of the passes and both
// measures, and the session.
func runMultiPass(t *testing.T, workers int) ([]*core.Result, string, *Session) {
	t.Helper()
	b, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 250}))
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
	var out strings.Builder
	measure := func() {
		m, err := s.Measure()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(m.Canonical())
	}
	measure()
	var passes []*core.Result
	for p := 1; p <= 3; p++ {
		cres, err := s.ComposePass()
		if err != nil {
			t.Fatalf("pass %d: %v", p, err)
		}
		passes = append(passes, cres)
		fmt.Fprintf(&out, "pass %d regs %d->%d mbrs %d\n", p, cres.RegsBefore, cres.RegsAfter, len(cres.MBRs))
	}
	measure()
	if err := b.Design.Validate(); err != nil {
		t.Fatalf("multi-pass session left design invalid: %v", err)
	}
	return passes, out.String(), s
}

// TestMultiPassFlow exercises repeated composition through
// Session.ComposePass: the retained compat engine serves every pass by
// delta, later passes never increase the register count, and the measured
// bytes stay identical across worker counts.
func TestMultiPassFlow(t *testing.T) {
	passes, want, s := runMultiPass(t, 1)
	if len(passes[0].MBRs) == 0 {
		t.Fatal("first pass composed nothing")
	}
	st := s.engs.cg.Stats()
	if st.Updates < 5 {
		t.Fatalf("engine should have served every pass and measure: %+v", st)
	}
	if st.Deltas == 0 {
		t.Fatalf("multi-pass session never took the delta path: %+v", st)
	}
	prev := passes[0].RegsBefore
	for i, c := range passes {
		if c.RegsBefore != prev {
			t.Fatalf("pass %d starts from %d regs, previous ended at %d", i+1, c.RegsBefore, prev)
		}
		if c.RegsAfter > c.RegsBefore {
			t.Fatalf("pass %d increased register count %d -> %d", i+1, c.RegsBefore, c.RegsAfter)
		}
		prev = c.RegsAfter
	}

	for _, workers := range []int{2, 4} {
		if _, got, _ := runMultiPass(t, workers); got != want {
			t.Fatalf("multi-pass session with Workers=%d differs from Workers=1:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// TestReportCarriesEngineStats sanity-checks the retained-engine stats
// surfaced on the report for the default single-pass flow.
func TestReportCarriesEngineStats(t *testing.T) {
	b := genSmall(t, 4)
	cfg := DefaultConfig()
	rep, err := Run(b.Design, b.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.CompatStats
	// Base measure, compose, final measure: at least three updates.
	if st.Updates < 3 {
		t.Fatalf("expected ≥3 engine updates, got %+v", st)
	}
	// Clock-tree maintenance runs in its own edit class now; its churn
	// must never evict the flow-class touched log.
	if st.TouchedOverflows != 0 {
		t.Fatalf("CTS churn overflowed the flow touched ring: %+v", st)
	}
	if st.LastKind == "" {
		t.Fatal("missing LastKind")
	}
	ct := rep.CTSStats
	if ct.Attaches == 0 {
		t.Fatalf("retained clock-tree engine never attached: %+v", ct)
	}
	if rep.Compose != nil && len(rep.Compose.MBRs) > 0 && ct.Deltas == 0 {
		t.Fatalf("composition happened but no CTS delta update ran: %+v", ct)
	}
	if len(rep.Engines) != 6 {
		t.Fatalf("expected summaries for sta/compat/cts/metrics/route/compose, got %v", rep.Engines)
	}
	for name, s := range rep.Engines {
		if s.Updates == 0 || s.LastKind == "" {
			t.Fatalf("engine %q reported no activity: %+v", name, s)
		}
	}
}

// TestFlowRingNeverOverflows is the edit-class-scoping regression test: the
// flow — base CTS attach, a composition pass followed by a delta tree
// update, and a final canonicalizing rebuild — must never overflow the
// flow-class touched ring at the default capacity. Before scoping, the
// clock-tree churn alone blew through the ring every pass. Shrinking the
// ring with Design.SetTouchedLogCap must degrade the engines to their full
// paths (overflows observed) without changing a byte of the report.
func TestFlowRingNeverOverflows(t *testing.T) {
	run := func(cap int) *Report {
		b, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 250}))
		if err != nil {
			t.Fatal(err)
		}
		b.Design.SetTouchedLogCap(cap)
		rep, err := Run(b.Design, b.Plan, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	def := run(0)
	if def.CompatStats.TouchedOverflows != 0 {
		t.Fatalf("default-capacity flow overflowed the flow ring: %+v", def.CompatStats)
	}
	if def.CTSStats.Deltas == 0 {
		t.Fatalf("flow never delta-maintained the trees: %+v", def.CTSStats)
	}
	tiny := run(16)
	if tiny.CompatStats.TouchedOverflows == 0 {
		t.Fatalf("16-entry ring should overflow under composition edits: %+v", tiny.CompatStats)
	}
	if a, b := def.Canonical(), tiny.Canonical(); a != b {
		t.Fatalf("ring capacity changed the report:\n%s", firstDiff(a, b))
	}
}

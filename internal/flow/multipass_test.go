package flow

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compatgraph"
	"repro/internal/core"
)

// runMultiPass opens a session on a D2 design at the given worker count
// and touched-ring capacity (0 = the default), measures it, runs three
// composition passes and measures again. It returns the per-pass results,
// the canonical bytes of the passes and both measures, and the session.
func runMultiPass(t *testing.T, workers, ringCap int) ([]*core.Result, string, *Session) {
	t.Helper()
	b, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 250}))
	if err != nil {
		t.Fatal(err)
	}
	b.Design.SetTouchedLogCap(ringCap)
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

// checkPassWorkers asserts that every pass composed with the session's
// worker count: ComposePass must hand Config.Workers to composition, not
// leave it to fall back to GOMAXPROCS.
func checkPassWorkers(t *testing.T, passes []*core.Result, workers int) {
	t.Helper()
	for i, c := range passes {
		if c.Workers != workers {
			t.Fatalf("Workers=%d session: pass %d composed with %d workers", workers, i+1, c.Workers)
		}
	}
}

// TestMultiPassFlow exercises repeated composition through
// Session.ComposePass: the retained compat engine is updated once per pass
// (never by a measure) and serves the later passes by delta, later passes
// never increase the register count, every pass runs at the session's
// worker count, and the measured bytes stay identical across worker counts.
func TestMultiPassFlow(t *testing.T) {
	passes, want, s := runMultiPass(t, 1, 0)
	checkPassWorkers(t, passes, 1)
	if len(passes[0].MBRs) == 0 {
		t.Fatal("first pass composed nothing")
	}
	st := s.engs.cg.Stats()
	if st.Updates != len(passes) {
		t.Fatalf("engine should update once per compose pass (%d), got %+v", len(passes), st)
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
		passes, got, _ := runMultiPass(t, workers, 0)
		checkPassWorkers(t, passes, workers)
		if got != want {
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
	// The compose pass is the flow's only compat update; the base and
	// final measures read none.
	if st.Updates != 1 || st.LastKind != compatgraph.KindInitial {
		t.Fatalf("expected exactly the compose pass's initial update, got %+v", st)
	}
	ct := rep.CTSStats
	if ct.Attaches == 0 {
		t.Fatalf("retained clock-tree engine never attached: %+v", ct)
	}
	if rep.Compose != nil && len(rep.Compose.MBRs) > 0 && ct.Deltas == 0 {
		t.Fatalf("composition happened but no CTS delta update ran: %+v", ct)
	}
	var keys []string
	for name := range rep.Engines {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "compat,cts,metrics,route,sta"; got != want {
		t.Fatalf("engine summary keys = %s, want %s", got, want)
	}
	for name, s := range rep.Engines {
		if s.Updates == 0 || s.LastKind == "" {
			t.Fatalf("engine %q reported no activity: %+v", name, s)
		}
	}
}

// TestFlowRingNeverOverflows is the edit-class-scoping regression test:
// composition passes, each followed by a delta tree update, with a base
// CTS attach and a final canonicalizing rebuild around them, must never
// overflow the flow-class touched ring at the default capacity. Before
// scoping, the clock-tree churn alone blew through the ring every pass.
// The compat engine observes the ring at compose sites, so the overflow
// counts come from a multi-pass session. Shrinking the ring with
// Design.SetTouchedLogCap must degrade the engines to their full paths
// (overflows observed) without changing a byte of the report or of the
// session's output.
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
	if def.CTSStats.Deltas == 0 {
		t.Fatalf("flow never delta-maintained the trees: %+v", def.CTSStats)
	}
	small := run(16)
	if small.MetricsStats.FullRebuilds < 2 {
		t.Fatalf("16-entry ring should overflow into a tracker rebuild: %+v", small.MetricsStats)
	}
	if a, b := def.Canonical(), small.Canonical(); a != b {
		t.Fatalf("ring capacity changed the report:\n%s", firstDiff(a, b))
	}

	_, want, s := runMultiPass(t, 1, 0)
	if st := s.engs.cg.Stats(); st.TouchedOverflows != 0 {
		t.Fatalf("default-capacity passes overflowed the flow ring: %+v", st)
	}
	_, got, tiny := runMultiPass(t, 1, 16)
	if st := tiny.engs.cg.Stats(); st.TouchedOverflows == 0 {
		t.Fatalf("16-entry ring should overflow under composition edits: %+v", st)
	}
	if want != got {
		t.Fatalf("ring capacity changed the multi-pass output:\n%s", firstDiff(want, got))
	}
}

package flow

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// runMultiPass opens a session on a D2 design at the given worker count,
// measures it, runs three composition passes and measures again. It
// returns the per-pass results, the canonical bytes of the passes and both
// measures, the session, and the flow-class touched record of the passes.
func runMultiPass(t *testing.T, workers int) ([]*core.Result, string, *Session, []netlist.InstID) {
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
	since := b.Design.Epoch()
	var passes []*core.Result
	for p := 1; p <= 3; p++ {
		cres, err := s.ComposePass()
		if err != nil {
			t.Fatalf("pass %d: %v", p, err)
		}
		passes = append(passes, cres)
		fmt.Fprintf(&out, "pass %d regs %d->%d mbrs %d\n", p, cres.RegsBefore, cres.RegsAfter, len(cres.MBRs))
	}
	touched, _ := b.Design.TouchedSinceClass(since, netlist.EditClassFlow, nil)
	measure()
	if err := b.Design.Validate(); err != nil {
		t.Fatalf("multi-pass session left design invalid: %v", err)
	}
	return passes, out.String(), s, touched
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
// Session.ComposePass: the compatibility graph is built once per pass
// (never by a measure), later passes never increase the register count, every
// pass runs at the session's worker count, and the measured bytes stay
// identical across worker counts.
func TestMultiPassFlow(t *testing.T) {
	passes, want, s, _ := runMultiPass(t, 1)
	checkPassWorkers(t, passes, 1)
	if len(passes[0].MBRs) == 0 {
		t.Fatal("first pass composed nothing")
	}
	if s.compatBuilds != len(passes) {
		t.Fatalf("session should build one graph per compose pass (%d), built %d", len(passes), s.compatBuilds)
	}
	if got, want := s.Engines()["compat"], (engine.Summary{Updates: len(passes), Rebuilds: len(passes), LastKind: "build"}); got != want {
		t.Fatalf("compat summary %+v, want %+v", got, want)
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
		passes, got, _, _ := runMultiPass(t, workers)
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
	// The compose pass is the flow's only compatibility-graph build; the
	// base and final measures build none.
	if st := rep.Engines["compat"]; st != (engine.Summary{Updates: 1, Rebuilds: 1, LastKind: "build"}) {
		t.Fatalf("expected exactly the compose pass's build, got %+v", st)
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

	// STA builds its graph once: the ideal-clock flips re-seed it and the
	// merges are patched in, on this design and on an MBR-rich D4 one.
	d4, err := bench.Generate(bench.D4(bench.ProfileOpts{Scale: 40}))
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := Run(d4.Design, d4.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Report{rep, rep4} {
		if s := r.Engines["sta"]; s.Rebuilds != 1 {
			t.Fatalf("%s: STA rebuilt its graph %d times, want the first build only: %+v", r.Design, s.Rebuilds, r.STAStats)
		}
		if s := r.STAStats; len(r.Compose.MBRs) > 0 && (s.StructuralDeltas == 0 || s.Reseeds == 0) {
			t.Fatalf("%s: merges or flips not served on the retained graph: %+v", r.Design, s)
		}
	}

	// On D1@5 the final measure reads thousands of CTS-class instances (the
	// canonicalizing tree rebuild re-clocks every register). Route and the
	// tracker fold them in as clock-only deltas, re-contributing a small
	// share of the nets.
	d1, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 5}))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(d1.Design, d1.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep1.RouteStats; s.Rebuilds != 1 || s.LastKind != "delta" || 4*s.LastNetsDelta >= d1.Design.NumNets() {
		t.Fatalf("D1@5: route rebuilt or re-contributed too much of %d nets: %+v", d1.Design.NumNets(), s)
	}
	t.Logf("D1@5 final measure: route re-contributed %d of %d nets", rep1.RouteStats.LastNetsDelta, d1.Design.NumNets())
	if s := rep1.MetricsStats; s.FullRebuilds != 1 || s.LastKind != "delta" {
		t.Fatalf("D1@5: tracker left its delta path: %+v", s)
	}
}

// TestFlowRingNeverOverflows is the edit-class-scoping regression test:
// composition passes, each followed by a delta tree update, with a base
// CTS attach and a final canonicalizing rebuild around them. The STA
// engine reads the flow-class record at every compose site, so a
// multi-pass session builds the timing graph exactly once, and the
// passes' flow-class record names no clock-tree buffer: the tree repairs
// are all on the CTS-class record.
func TestFlowRingNeverOverflows(t *testing.T) {
	b, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 250}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(b.Design, b.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CTSStats.Deltas == 0 {
		t.Fatalf("flow never delta-maintained the trees: %+v", rep.CTSStats)
	}

	_, _, s, touched := runMultiPass(t, 1)
	if st := s.engs.sta.Stats(); st.FullBuilds != 1 {
		t.Fatalf("passes rebuilt the timing graph: %+v", st)
	}
	if len(touched) == 0 {
		t.Fatal("the passes left no flow-class record")
	}
	inFlowRecord := map[netlist.InstID]bool{}
	for _, id := range touched {
		inFlowRecord[id] = true
	}
	for _, buf := range s.engs.cts.Buffers() {
		if inFlowRecord[buf.ID] {
			t.Fatalf("clock-tree buffer %s was edited under the flow edit class", buf.Name)
		}
	}
}

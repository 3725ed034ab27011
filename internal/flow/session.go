package flow

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// Session is a long-lived flow instance: the design, its scan plan and the
// four retained engines, held together so edits can stream in and
// measurements stream out with O(touched) incremental cost per request.
// It is the in-memory state of one composition-server tenant; Run is a
// thin one-shot wrapper that creates a Session, drives the paper's flow
// and closes it, so every batch oracle pinning Run also pins the Session.
//
// A Session is NOT safe for concurrent use. Callers that share one across
// goroutines (internal/serve) must serialize the state-advancing ops (Do
// and the calls it dispatches to) and may only run read-only calls
// (Engines, DumpState, Design) concurrently with each other.
type Session struct {
	d    *netlist.Design
	plan *scan.Plan
	cfg  Config
	engs *engines

	// passSeq numbers ComposePass invocations so MBR names stay unique
	// across a session's lifetime.
	passSeq int
	// compatBuilds counts the compatibility graphs ComposePass built.
	compatBuilds int

	// splitGroups accumulates what DecomposePassWith split so RestorePass can
	// re-merge the leftovers; restoredGroups offsets restore-merge names
	// across repeated bank/debank rounds.
	splitGroups    []splitGroup
	restoredGroups int

	closed bool
}

// NewSession validates the config, resets the design's touched records,
// builds the retained engines and attaches the clock trees. The design
// must be placed and legal (bench.Generate output qualifies).
func NewSession(d *netlist.Design, plan *scan.Plan, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{d: d, plan: plan, cfg: cfg}
	// The engines all start invalid (their first looks are full rebuilds),
	// so nothing the records hold from before this point — design
	// construction, most commonly — is ever read. Dropping it keeps the
	// records to the session's own edits.
	d.ResetTouchedLog()
	s.engs = newEngines(d, cfg)
	if err := s.engs.cts.Attach(); err != nil {
		s.Close()
		return nil, fmt.Errorf("flow: base CTS: %w", err)
	}
	return s, nil
}

// Design returns the session's design.
func (s *Session) Design() *netlist.Design { return s.d }

// Plan returns the session's scan plan (may be nil).
func (s *Session) Plan() *scan.Plan { return s.plan }

// Config returns the config the session was created with.
func (s *Session) Config() Config { return s.cfg }

// Engines returns the uniform engine.Summary view of the retained engines,
// keyed "sta", "cts", "metrics", "route", and of the compatibility-graph
// builds under "compat": every build is a rebuild of kind "build".
func (s *Session) Engines() map[string]engine.Summary {
	e := s.engs
	builds := engine.Summary{Updates: s.compatBuilds, Rebuilds: s.compatBuilds}
	if s.compatBuilds > 0 {
		builds.LastKind = "build"
	}
	return map[string]engine.Summary{
		"sta":     e.sta.Summary(),
		"compat":  builds,
		"cts":     e.cts.Summary(),
		"metrics": e.met.Summary(),
		"route":   e.rt.Summary(),
	}
}

// Epoch returns the design's current edit epoch.
func (s *Session) Epoch() uint64 { return s.d.Epoch() }

// Measure folds pending edits into the retained clock trees and snapshots
// the Table 1 metrics of the design's current state. Every value is served
// by a retained engine's delta path, and the work is what the edits
// reached: the CTS update re-plans only the clock domains whose sink list
// changed (one per register move or resize, none for skews) and derives
// the root-set check from the touched instances; the STA run recomputes
// the clock arrivals and timing cone the edits can have moved and returns
// only the endpoint statistics, copying no per-pin arrays. Re-planning a
// domain still costs O(its sinks). Note the measurement itself advances
// retained state (the tree update mutates the clock network), so a stream
// of edits and measures is deterministic as a *sequence* — replaying the
// same ops in the same order reproduces the same bytes.
func (s *Session) Measure() (Metrics, error) {
	if s.closed {
		return Metrics{}, fmt.Errorf("flow: session closed")
	}
	if err := s.engs.cts.Update(); err != nil {
		return Metrics{}, fmt.Errorf("flow: CTS update: %w", err)
	}
	return measure(s.engs)
}

// ComposePass runs one incremental MBR composition pass over a
// compatibility graph built for the design's current state (timing under
// ideal clocks, as post-place composition is analyzed before tree
// synthesis) and folds the merges into the retained clock trees. MBR names
// are unique across a session's passes: pass n > 1 gets the prefix
// "<NamePrefix>_p<n>".
func (s *Session) ComposePass() (*core.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("flow: session closed")
	}
	// Merging registers that sit under different tree leaves would fail the
	// merge's control-net agreement check; the engine releases each group's
	// clock pins back to the domain root just before the merge, and the
	// next tree update re-parents the MBR under a leaf.
	opts := core.NormalizeOptions(s.cfg.Compose)
	opts.Workers = s.cfg.Workers
	opts.ReleaseClocks = s.engs.cts.ReleaseClocks
	if s.passSeq > 0 {
		opts.NamePrefix = fmt.Sprintf("%s_p%d", opts.NamePrefix, s.passSeq+1)
	}
	s.engs.sta.SetIdealClocks(true)
	defer s.engs.sta.SetIdealClocks(false)
	if _, err := s.engs.sta.RunEndpoints(); err != nil {
		return nil, fmt.Errorf("flow: compose: %w", err)
	}
	g := compat.BuildN(s.d, s.engs.sta, s.plan, s.cfg.Compat.Rules, s.cfg.Workers)
	s.compatBuilds++
	cres, err := core.Compose(s.d, g, s.plan, opts)
	if err != nil {
		return nil, fmt.Errorf("flow: compose: %w", err)
	}
	s.passSeq++
	if len(cres.MBRs) > 0 {
		if err := s.engs.cts.Update(); err != nil {
			return nil, fmt.Errorf("flow: CTS update after compose: %w", err)
		}
	}
	return cres, nil
}

// DumpState writes the session's observable state as deterministic bytes:
// the design JSON, the scan plan JSON and the useful-skew assignments in
// instance-ID order. Two sessions whose DumpState bytes match are
// observationally identical — every subsequent identical op sequence
// produces identical reports. It is the byte-identity key of the
// snapshot/restore oracle (internal/serve).
func (s *Session) DumpState(w io.Writer) error {
	if err := s.d.WriteJSON(w); err != nil {
		return err
	}
	if s.plan != nil {
		if err := s.plan.WriteJSON(w, s.d); err != nil {
			return err
		}
	}
	var skewed []*netlist.Inst
	s.d.Insts(func(in *netlist.Inst) {
		if s.engs.sta.Skew(in.ID) != 0 {
			skewed = append(skewed, in)
		}
	})
	sort.Slice(skewed, func(i, j int) bool { return skewed[i].ID < skewed[j].ID })
	for _, in := range skewed {
		if _, err := fmt.Fprintf(w, "skew %s %s\n", in.Name,
			strconv.FormatFloat(s.engs.sta.Skew(in.ID), 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// Close marks the session closed. It does not tear down the clock trees:
// the design keeps the realized state, exactly as Run leaves it.
func (s *Session) Close() { s.closed = true }

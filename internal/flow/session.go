package flow

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// Session is a long-lived flow instance: the design, its scan plan and the
// six retained engines, held together so edits can stream in and
// measurements stream out with O(touched) incremental cost per request.
// It is the in-memory state of one composition-server tenant; Run is a
// thin one-shot wrapper that creates a Session, drives the paper's flow
// and closes it, so every batch oracle pinning Run also pins the Session.
//
// A Session is NOT safe for concurrent use. Callers that share one across
// goroutines (internal/serve) must serialize mutating calls (Apply,
// Measure, ComposePass) and may only run read-only calls (Engines,
// DumpState, Design) concurrently with each other.
type Session struct {
	d    *netlist.Design
	plan *scan.Plan
	cfg  Config
	engs *engines

	// passSeq numbers ComposePass invocations so MBR names stay unique
	// across a session's lifetime (the same scheme Run uses across
	// Config.Passes).
	passSeq int

	// splitGroups accumulates what DecomposePass split so RestorePass can
	// re-merge the leftovers; restoredGroups offsets restore-merge names
	// across repeated bank/debank rounds.
	splitGroups    []splitGroup
	restoredGroups int
	// slackCursor/slackSeen track the session's read position in the STA
	// engine's changed-slack feed (victim selection for DecomposePass).
	slackCursor uint64
	slackSeen   bool

	prevCap int
	capSet  bool
	closed  bool
}

// NewSession validates the config, resets the design's touched rings,
// builds the retained engines and attaches the clock trees. The design
// must be placed and legal (bench.Generate output qualifies). Close the
// session when done to restore the design's touched-ring capacity.
func NewSession(d *netlist.Design, plan *scan.Plan, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{d: d, plan: plan, cfg: cfg}
	if cfg.TouchedLogCap > 0 {
		s.prevCap = d.TouchedLogCap()
		s.capSet = true
		d.SetTouchedLogCap(cfg.TouchedLogCap)
	}
	// The engines all start invalid (their first looks are full rebuilds),
	// so whatever the rings recorded before this point — design
	// construction, most commonly — only wastes their capacity. Start the
	// session with the full ring budget.
	d.ResetTouchedLog()
	s.engs = newEngines(d, plan, cfg)
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

// Engines returns the uniform engine.Retained contract view of the
// retained engines, keyed "sta", "compat", "cts", "metrics", "route",
// "compose".
func (s *Session) Engines() map[string]engine.Summary {
	return s.engs.summaries()
}

// Epoch returns the design's current edit epoch.
func (s *Session) Epoch() uint64 { return s.d.Epoch() }

// Measure folds pending edits into the retained clock trees and snapshots
// the Table 1 metrics of the design's current state. After k edits it
// costs O(k), not O(design): every value is served by a retained engine's
// delta path. Note the measurement itself advances retained state (the
// tree update mutates the clock network), so a stream of edits and
// measures is deterministic as a *sequence* — replaying the same ops in
// the same order reproduces the same bytes.
func (s *Session) Measure() (Metrics, error) {
	if s.closed {
		return Metrics{}, fmt.Errorf("flow: session closed")
	}
	if err := s.engs.cts.Update(); err != nil {
		return Metrics{}, fmt.Errorf("flow: CTS update: %w", err)
	}
	return measure(s.d, s.engs, s.cfg)
}

// MeasureCanonical is Measure after canonicalizing the clock trees: the
// trees are left exactly as a batch build of the current design would
// leave them, so the metrics are byte-comparable with a one-shot batch
// flow regardless of the session's edit history. It pays for a tree
// rebuild; in-loop measurement uses the cheap Measure.
func (s *Session) MeasureCanonical() (Metrics, error) {
	if s.closed {
		return Metrics{}, fmt.Errorf("flow: session closed")
	}
	if err := s.engs.cts.Canonicalize(); err != nil {
		return Metrics{}, fmt.Errorf("flow: CTS canonicalize: %w", err)
	}
	return measure(s.d, s.engs, s.cfg)
}

// ComposePass runs one incremental MBR composition pass over the retained
// compatibility graph (timing under ideal clocks, as post-place
// composition is analyzed before tree synthesis) and folds the merges
// into the retained clock trees. MBR names are unique across a session's
// passes, following Run's naming scheme.
func (s *Session) ComposePass() (*core.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("flow: session closed")
	}
	opts := s.composeOpts()
	if s.passSeq > 0 {
		prefix := opts.NamePrefix
		if prefix == "" {
			prefix = "mbrc"
		}
		opts.NamePrefix = fmt.Sprintf("%s_p%d", prefix, s.passSeq+1)
	}
	s.engs.sta.SetIdealClocks(true)
	defer s.engs.sta.SetIdealClocks(false)
	cres, err := s.composePass(opts)
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

// composeOpts resolves the session's composition options: the configured
// ones plus the clock-release hook the retained trees require before a
// merge. Workers stays 0, so the compose engine uses the worker count
// newEngines gave it.
func (s *Session) composeOpts() core.Options {
	opts := s.cfg.Compose
	// Merging registers that sit under different tree leaves would fail the
	// merge's control-net agreement check; the engine releases each group's
	// clock pins back to the domain root just before the merge, and the
	// next tree update re-parents the MBR under a leaf.
	opts.ReleaseClocks = s.engs.cts.ReleaseClocks
	return opts
}

// composePass runs one composition pass with the given options against
// the retained engines. It does not touch the STA clock mode or the clock
// trees — Run and ComposePass own that sequencing.
func (s *Session) composePass(opts core.Options) (*core.Result, error) {
	res, err := s.engs.sta.Run()
	if err != nil {
		return nil, err
	}
	g := s.engs.cg.Update(res)
	maxNodes := opts.MaxSubgraphNodes
	if maxNodes <= 0 {
		maxNodes = 30
	}
	subs, hints := s.engs.cg.SubgraphsHinted(maxNodes)
	return s.engs.comp.Compose(g, s.plan, subs, hints, opts)
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

// Invalidate drops every retained engine's cached state (engine.Retained
// contract). The session stays usable — the next Measure pays for full
// rebuilds. Eviction paths call this so a dropped session releases its
// derived state deterministically.
func (s *Session) Invalidate() {
	if s.closed {
		return
	}
	s.engs.sta.Invalidate()
	s.engs.cg.Invalidate()
	s.engs.met.Invalidate()
	s.engs.rt.Invalidate()
	s.engs.comp.Invalidate()
	// The clock-tree engine's Invalidate tears the realized trees out of
	// the design (reattaching sinks to their roots) — the pre-CTS state a
	// fresh session would attach from.
	s.engs.cts.Invalidate()
}

// Close restores the design's touched-ring capacity and marks the session
// closed. It does not tear down the clock trees: the design keeps the
// realized state, exactly as Run leaves it.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.capSet {
		s.d.SetTouchedLogCap(s.prevCap)
	}
}

// Package flow drives the paper's implementation flow (Fig. 4) on a placed
// design: measure the Base state (CTS built, timing, congestion,
// wirelength), then incrementally run MBR composition → useful skew → MBR
// sizing → CTS update, and measure again. Its Report holds one Table 1
// row pair (Base / Ours).
//
// The retained engines carry state across the whole run behind the shared
// engine.Retained contract: the incremental STA engine, the
// compatibility-graph engine, the clock-tree engine, the design-aggregate
// tracker and the congestion engine. The clock tree is
// attached once for the Base measurement and then delta-maintained — never
// torn down and rebuilt between measurements. Its edits are scoped to the
// netlist's CTS edit class, so tree churn cannot evict the flow-class
// touched log that the STA and compatibility deltas depend on.
package flow

import (
	"fmt"
	"time"

	"repro/internal/clique"
	"repro/internal/compat"
	"repro/internal/compatgraph"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/scan"
	"repro/internal/sta"
)

// Metrics is one Table 1 row: the design-state snapshot the paper reports.
type Metrics struct {
	AreaUM2          float64
	Cells            int
	TotalRegs        int
	CompRegs         int
	ClkBufs          int
	ClkCapPF         float64
	TNSNS            float64 // total negative slack, reported positive, ns
	WNSPS            float64 // worst slack, ps (negative = violation)
	FailingEndpoints int
	TotalEndpoints   int
	OverflowEdges    int
	WLClkMM          float64
	WLSigMM          float64
}

// CompatConfig groups the retained compatibility-graph engine's options.
type CompatConfig struct {
	// Rules are the pairwise compatibility tests' options (§3.1 rules,
	// slack thresholds, region slack).
	Rules compat.Options
	// MaxDeltaFrac is the changed-node fraction above which the retained
	// engine's Update abandons the delta path for a full edge re-test
	// (0 = the engine default, 0.25). Interactive sessions that prize
	// latency consistency over per-update cost can raise it to stay on the
	// delta path through larger ripples.
	MaxDeltaFrac float64
}

// CTSConfig groups the retained clock-tree engine's options.
type CTSConfig struct {
	// Tree holds the clustering limits and buffer model the trees are
	// built with.
	Tree cts.Options
}

// RouteConfig groups the retained congestion engine's options.
type RouteConfig struct {
	// Est holds the G-cell pitch, edge capacities and clock-net inclusion
	// the congestion map is estimated with.
	Est route.Options
}

// Config selects the flow options.
type Config struct {
	// Compose holds the composition options. Its Workers must stay 0: the
	// flow's one worker setting is Config.Workers.
	Compose core.Options
	// Compat, CTS and Route configure the retained engines.
	Compat CompatConfig
	CTS    CTSConfig
	Route  RouteConfig
	// UsefulSkew applies per-MBR useful clock skew after composition
	// (Fig. 4).
	UsefulSkew bool
	// UsefulSkewWindowPS bounds the skew magnitude.
	UsefulSkewWindowPS float64
	// Sizing downsizes composed MBRs whose slack allows it (Fig. 4 "MBR
	// sizing"), recovering clock-pin capacitance and area.
	Sizing bool
	// SizingMarginPS is the slack that must remain after a downsize.
	SizingMarginPS float64
	// Decompose configures the slack-driven decomposition pass (the
	// bank/debank loop's debank direction): victims picked from the STA
	// changed-slack feed, worst cones first, bounded by Decompose.Budget.
	// In Run's one-shot flow an enabled config decomposes before the first
	// compose and restores leftovers after the last; sessions drive
	// DecomposePass/RestorePass directly.
	Decompose DecomposeConfig
	// Workers is the flow's only worker setting. Every retained engine gets
	// it: the composition shard pool, the STA engine's levelized sweeps,
	// the compat engine's pairwise re-tests, the CTS clustering plan and
	// the congestion rebuild. 0 = one worker per available CPU
	// (runtime.GOMAXPROCS(0)), 1 = a single worker. Reports are
	// byte-identical for any setting.
	Workers int
	// Passes runs the composition stage this many times (≤1 = once, the
	// paper's flow). Later passes re-time the design and recompose over the
	// incrementally maintained compatibility graph — the retained engine
	// makes the extra graph updates cheap — picking up merges the first
	// pass's subgraph bound or legalization moves made possible.
	Passes int
	// TouchedLogCap overrides the netlist's per-edit-class touched-ring
	// capacity for the duration of the run (0 = leave the design's current
	// capacity). Larger rings keep the engines on their delta paths across
	// bigger edit bursts at a little memory cost.
	TouchedLogCap int
}

// Validate rejects configs whose knobs are out of range, with an error
// naming the offending field. Every count-like knob treats 0 as "use the
// default"; negative values were previously accepted silently and clamped
// (or worse, threaded into worker pools), so they are now explicit errors.
func (c Config) Validate() error {
	checks := []struct {
		name string
		v    int
	}{
		{"Workers", c.Workers},
		{"Passes", c.Passes},
		{"TouchedLogCap", c.TouchedLogCap},
	}
	for _, ck := range checks {
		if ck.v < 0 {
			return fmt.Errorf("flow: Config.%s = %d: must be >= 0 (0 selects the default)", ck.name, ck.v)
		}
	}
	if c.Compose.Workers != 0 {
		return fmt.Errorf("flow: Config.Compose.Workers = %d: must be 0 (set Config.Workers, the flow's one worker setting)", c.Compose.Workers)
	}
	if c.Compose.MaxSubgraphNodes > clique.MaxNodes {
		return fmt.Errorf("flow: Config.Compose.MaxSubgraphNodes = %d: must be <= %d (clique.MaxNodes)", c.Compose.MaxSubgraphNodes, clique.MaxNodes)
	}
	if c.UsefulSkew && c.UsefulSkewWindowPS < 0 {
		return fmt.Errorf("flow: Config.UsefulSkewWindowPS = %v: must be >= 0 (0 selects the default window)", c.UsefulSkewWindowPS)
	}
	if c.Compat.MaxDeltaFrac < 0 {
		return fmt.Errorf("flow: Config.Compat.MaxDeltaFrac = %v: must be >= 0 (0 selects the engine default)", c.Compat.MaxDeltaFrac)
	}
	if c.CTS.Tree.RecenterThresholdDBU < 0 {
		return fmt.Errorf("flow: Config.CTS.Tree.RecenterThresholdDBU = %d: must be >= 0 (0 disables hysteresis)", c.CTS.Tree.RecenterThresholdDBU)
	}
	if c.Decompose.Budget < 0 {
		return fmt.Errorf("flow: Config.Decompose.Budget = %d: must be >= 0 (0 disables the pass)", c.Decompose.Budget)
	}
	return nil
}

// DefaultConfig returns the paper-default flow.
func DefaultConfig() Config {
	return Config{
		Compose:            core.DefaultOptions(),
		Compat:             CompatConfig{Rules: compat.DefaultOptions()},
		CTS:                CTSConfig{Tree: cts.DefaultOptions()},
		Route:              RouteConfig{Est: route.DefaultOptions()},
		UsefulSkew:         true,
		UsefulSkewWindowPS: 150,
		Sizing:             true,
		SizingMarginPS:     20,
	}
}

// Report is the outcome of one flow run.
type Report struct {
	Design string
	Base   Metrics
	Ours   Metrics
	// Compose is the composition result of the first pass (nil when
	// composition found nothing).
	Compose *core.Result
	// ExtraPasses holds the results of composition passes beyond the first
	// (Config.Passes > 1).
	ExtraPasses []*core.Result
	// CompatStats reports what the retained compatibility-graph engine did
	// across the whole flow (delta vs rebuild decisions, re-tested edges).
	CompatStats compatgraph.Stats
	// STAStats and CTSStats are the same accounting for the retained
	// timing and clock-tree engines.
	STAStats sta.RunStats
	CTSStats cts.Stats
	// MetricsStats accounts for the retained design-aggregate tracker the
	// measurement points read instead of walking the whole design.
	MetricsStats metrics.Stats
	// RouteStats accounts for the retained congestion engine (delta vs
	// rebuild decisions, re-contributed nets, touched grid edges).
	RouteStats route.Stats
	// ComposeStats accounts for the retained compose engine (subgraph memo
	// replays vs fresh solves, ILP nodes saved, scheduler shards).
	ComposeStats core.EngineStats
	// Engines is the uniform engine.Retained contract view of the retained
	// engines, keyed "sta", "compat", "cts", "metrics", "route", "compose".
	Engines map[string]engine.Summary
	// SkewedMBRs and ResizedMBRs count the post-composition optimizations.
	SkewedMBRs  int
	ResizedMBRs int
	// DecomposedMBRs counts the MBRs the decompose pass split before
	// composition (Config.Decompose); RestoredMBRs counts the merges that re-grouped leftover
	// split bits afterwards. Both come from the one decompose/restore code
	// path the session passes share.
	DecomposedMBRs int
	RestoredMBRs   int
	// ComposeTime is the MBR composition + optimization wall time (the
	// paper's "Exec. Time" column measures these new steps).
	ComposeTime time.Duration
	// TotalTime is the whole flow, both measurements included.
	TotalTime time.Duration
}

// engines bundles the flow's retained engines. Each satisfies the
// engine.Retained contract; the flow drives them through this one struct so
// every stage sees the same instances and their stats survive to the
// Report.
type engines struct {
	sta *sta.Engine
	cg  *compatgraph.Engine
	cts *cts.Engine
	// met retains the design-level report aggregates (cells, registers,
	// area, signal wirelength) so measure never walks the whole design.
	met *metrics.Tracker
	// rt retains the G-cell congestion map so measure's overflow-edge count
	// is served by per-net demand deltas, not a full re-estimate.
	rt *route.Engine
	// comp retains the per-subgraph compose solve memo, so a pass re-solves
	// only the subgraphs something actually changed under.
	comp *core.Engine
}

func newEngines(d *netlist.Design, plan *scan.Plan, cfg Config) *engines {
	e := &engines{
		sta: sta.New(d),
		cg: compatgraph.New(d, plan, compatgraph.Options{
			Compat:       cfg.Compat.Rules,
			Workers:      cfg.Workers,
			MaxDeltaFrac: cfg.Compat.MaxDeltaFrac,
		}),
		cts:  cts.NewEngine(d, cfg.CTS.Tree),
		met:  metrics.New(d),
		rt:   route.NewEngine(d, cfg.Route.Est),
		comp: core.NewEngine(d),
	}
	e.sta.SetWorkers(cfg.Workers)
	e.rt.SetWorkers(cfg.Workers)
	e.comp.SetWorkers(cfg.Workers)
	e.cts.SetWorkers(cfg.Workers)
	// The compat node phase consumes the STA engine's changed-slack feed;
	// every cg.Update in the flow passes that engine's latest snapshot.
	e.cg.SetTimingFeed(e.sta)
	return e
}

// summaries is the uniform contract view of the retained engines.
func (e *engines) summaries() map[string]engine.Summary {
	return map[string]engine.Summary{
		"sta":     e.sta.Summary(),
		"compat":  e.cg.Summary(),
		"cts":     e.cts.Summary(),
		"metrics": e.met.Summary(),
		"route":   e.rt.Summary(),
		"compose": e.comp.Summary(),
	}
}

// Run executes the flow on the design in place. The design must be placed
// and legal (bench.Generate output qualifies). It is a thin one-shot
// wrapper over Session: create, drive the paper's flow, close.
func Run(d *netlist.Design, plan *scan.Plan, cfg Config) (*Report, error) {
	t0 := time.Now()
	s, err := NewSession(d, plan, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rep, err := s.runFlow()
	if err != nil {
		return nil, err
	}
	rep.TotalTime = time.Since(t0)
	return rep, nil
}

// runFlow drives the paper's implementation flow (Fig. 4) on the
// session's freshly attached engines: base measurement, composition
// passes, useful skew, sizing, final canonical measurement.
func (s *Session) runFlow() (*Report, error) {
	d, plan, cfg, engs := s.d, s.plan, s.cfg, s.engs
	rep := &Report{Design: d.Name}
	eng, cg := engs.sta, engs.cg

	// ---- Base measurement: the trees were attached by NewSession and
	// stay attached for the rest of the run; composition edits are folded
	// in by delta updates. ----
	base, err := measure(d, engs, cfg)
	if err != nil {
		return nil, err
	}
	rep.Base = base

	// ---- Optional bank/debank step: decompose MBRs (every max-width one
	// under the All preset, else the worst-slack cones up to the budget) so
	// their bits can recompose with neighbours; leftovers are restored
	// after composition. One code path serves this, the session's
	// DecomposePass and the ablations — the report counts always agree.
	if cfg.Decompose.enabled() {
		eng.SetIdealClocks(true)
		dres, err := s.decomposePass(cfg.Decompose)
		eng.SetIdealClocks(false)
		if err != nil {
			return nil, fmt.Errorf("flow: decompose: %w", err)
		}
		rep.DecomposedMBRs = len(dres.Victims)
	}

	// ---- Incremental MBR composition (ideal clocks, as post-place timing
	// is analyzed before a tree exists). ----
	eng.SetIdealClocks(true)
	tc0 := time.Now()
	composeOpts := s.composeOpts()
	namePrefix := composeOpts.NamePrefix
	if namePrefix == "" {
		namePrefix = "mbrc"
	}
	passes := cfg.Passes
	if passes < 1 {
		passes = 1
	}
	var newMBRs []*netlist.Inst
	for p := 0; p < passes; p++ {
		if p > 0 {
			// Keep MBR names unique across passes.
			composeOpts.NamePrefix = fmt.Sprintf("%s_p%d", namePrefix, p+1)
		}
		cres, err := s.composePass(composeOpts)
		if err != nil {
			return nil, fmt.Errorf("flow: compose pass %d: %w", p+1, err)
		}
		if p == 0 {
			rep.Compose = cres
		} else {
			rep.ExtraPasses = append(rep.ExtraPasses, cres)
		}
		for _, m := range cres.MBRs {
			newMBRs = append(newMBRs, m.Inst)
		}
		if len(cres.MBRs) == 0 {
			break // converged: nothing left to merge
		}
		// Fold this pass's merges into the retained trees by delta, so the
		// next pass (and the optimization stages) see a maintained tree.
		if err := engs.cts.Update(); err != nil {
			return nil, fmt.Errorf("flow: CTS update pass %d: %w", p+1, err)
		}
	}
	// A later pass can merge an earlier pass's MBRs away; the skew and
	// sizing stages only want the survivors.
	live := newMBRs[:0]
	for _, in := range newMBRs {
		if d.Inst(in.ID) != nil {
			live = append(live, in)
		}
	}
	newMBRs = live

	if cfg.Decompose.enabled() {
		groups := s.splitGroups
		s.splitGroups = nil
		n, err := restoreSplitLeftovers(d, plan, groups, engs.cts.ReleaseClocks, 0)
		if err != nil {
			return nil, fmt.Errorf("flow: restore: %w", err)
		}
		rep.RestoredMBRs = n
	}

	// ---- Useful skew on the new MBRs (Fig. 4). ----
	if cfg.UsefulSkew && len(newMBRs) > 0 {
		res2, err := eng.Run()
		if err != nil {
			return nil, err
		}
		window := cfg.UsefulSkewWindowPS
		if window <= 0 {
			window = 150
		}
		rep.SkewedMBRs = eng.AssignUsefulSkew(newMBRs, res2, window)
	}

	// ---- MBR sizing. ----
	if cfg.Sizing && len(newMBRs) > 0 {
		n, err := resizeMBRs(d, eng, newMBRs, cfg.SizingMarginPS)
		if err != nil {
			return nil, err
		}
		rep.ResizedMBRs = n
	}
	rep.ComposeTime = time.Since(tc0)
	eng.SetIdealClocks(false)

	// ---- Sync the retained trees and measure "Ours". Measurement folds
	// floats over nets in ID order, so the trees are canonicalized — left
	// exactly as a batch build of the final design would leave them — to
	// keep reports byte-comparable with the batch flow. ----
	if err := engs.cts.Canonicalize(); err != nil {
		return nil, fmt.Errorf("flow: final CTS: %w", err)
	}
	rep.Ours, err = measure(d, engs, cfg)
	if err != nil {
		return nil, err
	}
	rep.CompatStats = cg.Stats()
	rep.STAStats = eng.Stats()
	rep.CTSStats = engs.cts.Stats()
	rep.MetricsStats = engs.met.Stats()
	rep.RouteStats = engs.rt.Stats()
	rep.ComposeStats = engs.comp.Stats()
	rep.Engines = engs.summaries()
	return rep, nil
}

// measure snapshots the Table 1 metrics of the design's current state. It
// reads only retained layers — the STA engine, the compat engine, the CTS
// engine's cached tree metrics, the design-aggregate tracker and the
// congestion engine's maintained overflow count — so a measurement after k
// edits costs O(k), not O(design): no stage walks the full design on the
// delta path. Every retained value equals its batch oracle bit-for-bit
// (cts.Metrics vs cts.Measure, metrics.Tracker vs the netlist walks,
// route.Engine vs route.Estimate), which keeps reports byte-identical with
// the former batch measurement.
func measure(d *netlist.Design, engs *engines, cfg Config) (Metrics, error) {
	res, err := engs.sta.Run()
	if err != nil {
		return Metrics{}, err
	}
	g := engs.cg.Update(res)
	cm := engs.cts.Metrics()
	overflow := engs.rt.OverflowEdges()
	dm := engs.met.Aggregates()

	return Metrics{
		AreaUM2:          float64(dm.AreaDBU2) / 1e6, // 1 DBU = 1 nm
		Cells:            dm.Cells,
		TotalRegs:        dm.Regs,
		CompRegs:         len(g.Regs),
		ClkBufs:          cm.Buffers,
		ClkCapPF:         cm.TotalCapFF / 1000,
		TNSNS:            -res.TNS / 1000,
		WNSPS:            res.WNS,
		FailingEndpoints: res.FailingEndpoints,
		TotalEndpoints:   res.TotalEndpoints,
		OverflowEdges:    overflow,
		WLClkMM:          float64(cm.WirelengthDBU) / 1e6,
		WLSigMM:          float64(dm.SignalWLDBU) / 1e6,
	}, nil
}

// resizeMBRs downsizes composed MBRs whose timing headroom allows a weaker
// (lower clock-cap, lower leakage) drive, then verifies with a full STA and
// rolls every swap back if TNS degraded.
func resizeMBRs(d *netlist.Design, eng *sta.Engine, mbrs []*netlist.Inst, marginPS float64) (int, error) {
	res, err := eng.Run()
	if err != nil {
		return 0, err
	}
	var swaps []swapRecord
	for _, in := range mbrs {
		cur := in.RegCell
		cands := d.Lib.CellsOfWidth(cur.Class, cur.Bits)
		qs := sta.RegQSlack(d, res, in)
		ds := sta.RegDSlack(d, res, in)
		// Try the weakest candidate that keeps estimated slack positive.
		var best *swapTarget
		for _, c := range cands {
			if c.DriveRes <= cur.DriveRes {
				continue // not a downsize
			}
			var load float64
			for b := 0; b < in.Bits(); b++ {
				if q := d.QPin(in, b); q != nil && q.Net != netlist.NoID {
					if l := d.NetLoadCap(d.Net(q.Net)); l > load {
						load = l
					}
				}
			}
			extra := (c.DriveRes-cur.DriveRes)*load + (c.Intrinsic - cur.Intrinsic)
			if qs-extra > marginPS && ds > marginPS {
				if best == nil || c.DriveRes > best.cell.DriveRes {
					best = &swapTarget{cell: c}
				}
			}
		}
		if best != nil {
			old := in.RegCell
			if err := d.ResizeRegister(in, best.cell); err != nil {
				return 0, err
			}
			swaps = append(swaps, swapRecord{in, old})
		}
	}
	if len(swaps) == 0 {
		return 0, nil
	}
	after, err := eng.Run()
	if err != nil {
		return 0, err
	}
	if after.TNS < res.TNS-1e-9 {
		// Sizing hurt: revert everything.
		for _, s := range swaps {
			if err := d.ResizeRegister(s.inst, s.old); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	return len(swaps), nil
}

type swapRecord struct {
	inst *netlist.Inst
	old  *lib.Cell
}

type swapTarget struct {
	cell *lib.Cell
}

func geomSnap(d *netlist.Design, x, y int64) (p geom.Point) {
	p.X = d.Core.Lo.X + ((x-d.Core.Lo.X)/d.SiteW)*d.SiteW
	p.Y = d.Core.Lo.Y + ((y-d.Core.Lo.Y)/d.RowH)*d.RowH
	return p
}

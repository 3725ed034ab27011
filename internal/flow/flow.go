// Package flow drives the paper's implementation flow (Fig. 4) on a placed
// design: measure the Base state (CTS built, timing, congestion,
// wirelength), then incrementally run MBR composition → useful skew → MBR
// sizing → CTS update, and measure again. Its Report holds one Table 1
// row pair (Base / Ours).
//
// Four engines retain state across the run, each reporting an
// engine.Summary: the incremental STA engine, the clock-tree engine, the
// design-aggregate tracker and the congestion engine. The compatibility
// graph is built from scratch (compat.BuildN) at each composition site,
// and the session reports its build count beside them. The clock tree is
// attached once for the Base measurement and then delta-maintained —
// never torn down and rebuilt between measurements. Its edits are scoped to the netlist's CTS edit
// class, so tree churn cannot evict the flow-class touched log that the
// STA delta depends on.
package flow

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/engine"
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

// CompatConfig groups the compatibility graph's options.
type CompatConfig struct {
	// Rules are the pairwise compatibility tests' options (the §2 slack
	// threshold).
	Rules compat.Options
}

// CTSConfig groups the retained clock-tree engine's options.
type CTSConfig struct {
	// Tree holds the clustering limits and buffer model the trees are
	// built with.
	Tree cts.Options
}

// RouteConfig groups the retained congestion engine's options.
type RouteConfig struct {
	// Est holds the G-cell pitch and edge capacities the congestion map is
	// estimated with.
	Est route.Options
}

// Config selects the flow options.
type Config struct {
	// Compose holds the composition options. Its Workers must stay 0: the
	// flow's one worker setting is Config.Workers.
	Compose core.Options
	// Compat configures the compatibility graph; CTS and Route configure
	// the retained engines.
	Compat CompatConfig
	CTS    CTSConfig
	Route  RouteConfig
	// UsefulSkew applies per-MBR useful clock skew, bounded by
	// usefulSkewWindowPS, after composition (Fig. 4).
	UsefulSkew bool
	// Sizing downsizes composed MBRs whose slack allows it (Fig. 4 "MBR
	// sizing"), recovering clock-pin capacitance and area; sizingMarginPS
	// of slack must remain after a downsize.
	Sizing bool
	// Decompose configures the slack-driven decomposition pass (the
	// bank/debank loop's debank direction): victims are the registers with
	// the worst D/Q slack under ideal clocks, worst first, bounded by
	// Decompose.Budget.
	// In Run's one-shot flow an enabled config decomposes before the
	// compose and restores leftovers after it; sessions drive
	// DecomposePassWith/RestorePass directly.
	Decompose DecomposeConfig
	// Workers is the flow's only worker setting. Composition and every
	// retained engine get it: the composition shard pool, the STA engine's
	// levelized sweeps, the compatibility graph's pairwise tests, the CTS
	// clustering plan and the congestion rebuild. Any value but 1 also
	// makes measure sync its engines concurrently. 0 = one worker per
	// available CPU (runtime.GOMAXPROCS(0)), 1 = a single worker. Reports
	// are byte-identical for any setting.
	Workers int
}

// usefulSkewWindowPS bounds the useful-skew magnitude and sizingMarginPS
// is the slack a downsized MBR must keep (Fig. 4's post-composition
// stages).
const (
	usefulSkewWindowPS = 150
	sizingMarginPS     = 20
)

// Validate rejects configs whose knobs are out of range, with an error
// naming the offending field. Every count-like knob treats 0 as "use the
// default" and rejects negative values.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("flow: Config.Workers = %d: must be >= 0 (0 selects the default)", c.Workers)
	}
	if c.Compose.Workers != 0 {
		return fmt.Errorf("flow: Config.Compose.Workers = %d: must be 0 (set Config.Workers, the flow's one worker setting)", c.Compose.Workers)
	}
	if c.Compose.MaxSubgraphNodes < 0 || c.Compose.MaxSubgraphNodes > clique.MaxNodes {
		return fmt.Errorf("flow: Config.Compose.MaxSubgraphNodes = %d: must be in 0..%d (0 selects the default; clique.MaxNodes)", c.Compose.MaxSubgraphNodes, clique.MaxNodes)
	}
	if c.Compose.ILPNodeLimit < 0 {
		return fmt.Errorf("flow: Config.Compose.ILPNodeLimit = %d: must be >= 0 (0 selects the default)", c.Compose.ILPNodeLimit)
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
		Compose:    core.DefaultOptions(),
		Compat:     CompatConfig{Rules: compat.DefaultOptions()},
		CTS:        CTSConfig{Tree: cts.DefaultOptions()},
		Route:      RouteConfig{Est: route.DefaultOptions()},
		UsefulSkew: true,
		Sizing:     true,
	}
}

// Report is the outcome of one flow run.
type Report struct {
	Design string
	Base   Metrics
	Ours   Metrics
	// Compose is the flow's composition result.
	Compose *core.Result
	// ExtraPasses is always empty: the flow runs one composition pass, and
	// repeated composition goes through Session.ComposePass. The field stays
	// until benchmark/trace.go stops reading it.
	ExtraPasses []*core.Result
	// STAStats and CTSStats account for the retained timing and
	// clock-tree engines.
	STAStats sta.RunStats
	CTSStats cts.Stats
	// MetricsStats accounts for the retained design-aggregate tracker the
	// measurement points read instead of walking the whole design.
	MetricsStats metrics.Stats
	// RouteStats accounts for the retained congestion engine (delta vs
	// rebuild decisions, re-contributed nets, touched grid edges).
	RouteStats route.Stats
	// Engines is the uniform engine.Summary view of the retained engines
	// and the compatibility-graph builds, keyed "sta", "compat", "cts",
	// "metrics", "route".
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

// engines bundles the flow's retained engines. The flow drives them
// through this one struct so every stage sees the same instances and
// their stats survive to the Report.
type engines struct {
	sta *sta.Engine
	cts *cts.Engine
	// met retains the design-level report aggregates (cells, registers,
	// area, signal wirelength) so measure never walks the whole design.
	met *metrics.Tracker
	// rt retains the G-cell congestion map so measure's overflow-edge count
	// is served by per-net demand deltas, not a full re-estimate.
	rt *route.Engine
	// workers is Config.Workers: at 1, measure syncs the engines one after
	// another; otherwise it syncs them concurrently.
	workers int
}

func newEngines(d *netlist.Design, cfg Config) *engines {
	e := &engines{
		sta:     sta.New(d),
		cts:     cts.NewEngine(d, cfg.CTS.Tree),
		met:     metrics.New(d),
		rt:      route.NewEngine(d, cfg.Route.Est),
		workers: cfg.Workers,
	}
	e.sta.SetWorkers(cfg.Workers)
	e.rt.SetWorkers(cfg.Workers)
	e.cts.SetWorkers(cfg.Workers)
	return e
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
// session's freshly attached engines: base measurement, one composition
// pass, useful skew, sizing, final canonical measurement.
func (s *Session) runFlow() (*Report, error) {
	d, cfg, engs := s.d, s.cfg, s.engs
	rep := &Report{Design: d.Name}
	eng := engs.sta

	// ---- Base measurement: the trees were attached by NewSession and
	// stay attached for the rest of the run; composition edits are folded
	// in by delta updates. ----
	base, err := measure(engs)
	if err != nil {
		return nil, err
	}
	rep.Base = base

	// ---- Optional bank/debank step: decompose MBRs (every max-width one
	// under the All preset, else the worst-slack cones up to the budget) so
	// their bits can recompose with neighbours; leftovers are restored
	// after composition. The session's own DecomposePassWith and
	// RestorePass serve it, so the report counts always agree with them.
	if cfg.Decompose.enabled() {
		dres, err := s.DecomposePassWith(cfg.Decompose)
		if err != nil {
			return nil, fmt.Errorf("flow: decompose: %w", err)
		}
		rep.DecomposedMBRs = len(dres.Victims)
	}

	// ---- Incremental MBR composition: ComposePass analyzes timing under
	// ideal clocks and folds the merges into the retained trees by delta,
	// so the optimization stages see a maintained tree. ----
	tc0 := time.Now()
	cres, err := s.ComposePass()
	if err != nil {
		return nil, err
	}
	rep.Compose = cres
	newMBRs := make([]*netlist.Inst, len(cres.MBRs))
	for i, m := range cres.MBRs {
		newMBRs[i] = m.Inst
	}
	// Skew and sizing also analyze timing under ideal clocks; ComposePass
	// turned them off on return.
	eng.SetIdealClocks(true)

	if cfg.Decompose.enabled() {
		n, err := s.RestorePass()
		if err != nil {
			return nil, fmt.Errorf("flow: restore: %w", err)
		}
		rep.RestoredMBRs = n
	}

	// ---- Useful skew on the new MBRs (Fig. 4). It reads the new MBRs'
	// slacks from the engine, so the run copies no per-pin arrays. ----
	if cfg.UsefulSkew && len(newMBRs) > 0 {
		if _, err := eng.RunEndpoints(); err != nil {
			return nil, err
		}
		rep.SkewedMBRs = eng.AssignUsefulSkew(newMBRs, usefulSkewWindowPS)
	}

	// ---- MBR sizing. ----
	if cfg.Sizing && len(newMBRs) > 0 {
		n, err := resizeMBRs(d, eng, newMBRs, sizingMarginPS)
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
	rep.Ours, err = measure(engs)
	if err != nil {
		return nil, err
	}
	rep.STAStats = eng.Stats()
	rep.CTSStats = engs.cts.Stats()
	rep.MetricsStats = engs.met.Stats()
	rep.RouteStats = engs.rt.Stats()
	rep.Engines = s.Engines()
	return rep, nil
}

// measure snapshots the Table 1 metrics of the design's current state. It
// reads only retained layers — the STA engine's endpoint statistics, the
// CTS engine's fold over its own clock nets, the design-aggregate tracker
// and the congestion engine's maintained overflow count — so no stage
// walks the full design on the delta path. It builds no compatibility
// graph: the composable-register count comes from the tracker, and only
// compose sites build the graph. Every
// retained value equals its batch oracle bit-for-bit (cts.Metrics vs
// cts.Measure, metrics.Tracker vs the netlist walks, route.Engine vs
// route.Estimate), which keeps reports byte-identical with the former
// batch measurement.
//
// Unless engs.workers is 1, the STA run, the congestion sync and the CTS
// metrics plus tracker sync run concurrently, joined before the metrics
// are assembled. Each engine reads the design and writes only its own
// state, so the values are those of the sequential order.
func measure(engs *engines) (Metrics, error) {
	var (
		res      sta.EndpointStats
		err      error
		cm       cts.Metrics
		overflow int
		dm       metrics.Aggregates
	)
	if engs.workers == 1 {
		if res, err = engs.sta.RunEndpoints(); err != nil {
			return Metrics{}, err
		}
		cm = engs.cts.Metrics()
		overflow = engs.rt.OverflowEdges()
		dm = engs.met.Aggregates()
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err = engs.sta.RunEndpoints()
		}()
		go func() {
			defer wg.Done()
			overflow = engs.rt.OverflowEdges()
		}()
		cm = engs.cts.Metrics()
		dm = engs.met.Aggregates()
		wg.Wait()
		if err != nil {
			return Metrics{}, err
		}
	}

	return Metrics{
		AreaUM2:          float64(dm.AreaDBU2) / 1e6, // 1 DBU = 1 nm
		Cells:            dm.Cells,
		TotalRegs:        dm.Regs,
		CompRegs:         dm.CompRegs,
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
// (lower clock-cap, lower leakage) drive, then verifies with an STA run and
// rolls every swap back if TNS degraded. It reads the MBRs' slacks from
// the engine's state before the first swap, and both runs copy no per-pin
// arrays.
func resizeMBRs(d *netlist.Design, eng *sta.Engine, mbrs []*netlist.Inst, marginPS float64) (int, error) {
	before, err := eng.RunEndpoints()
	if err != nil {
		return 0, err
	}
	var swaps []swapRecord
	for _, in := range mbrs {
		cur := in.RegCell
		cands := d.Lib.CellsOfWidth(cur.Class, cur.Bits)
		qs := sta.RegQSlack(d, eng, in)
		ds := sta.RegDSlack(d, eng, in)
		// The worst Q-net load the weaker drive would see.
		var load float64
		for b := 0; b < in.Bits(); b++ {
			if q := d.QPin(in, b); q != nil && q.Net != netlist.NoID {
				if l := d.NetLoadCap(d.Net(q.Net)); l > load {
					load = l
				}
			}
		}
		// Try the weakest candidate that keeps estimated slack positive.
		var best *swapTarget
		for _, c := range cands {
			if c.DriveRes <= cur.DriveRes {
				continue // not a downsize
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
	after, err := eng.RunEndpoints()
	if err != nil {
		return 0, err
	}
	if after.TNS < before.TNS-1e-9 {
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

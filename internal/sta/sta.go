// Package sta is a graph-based static timing analyzer over the netlist
// database. It uses the linear delay abstraction the paper's mapping step
// reasons with (§4.1): cell delay = intrinsic + driveResistance × load, and
// wire delay proportional to Manhattan pin distance. It produces per-pin
// arrival/required/slack, WNS/TNS, failing endpoint counts, propagated
// clock arrivals, per-register useful-skew assignment, and the
// timing-feasible move regions that placement compatibility (§2) is built
// from.
//
// The analyzer is built for repeated analysis inside an optimization loop:
// an Engine retains a slice-backed timing graph with a cached levelized
// topological order across runs, and consults the netlist's edit epoch
// (netlist.Design.Epoch) to decide how much work a Run actually needs.
// Parametric edits (moves, resizes, skews, clock-network changes)
// recompute only the clock arrivals they can have moved (clock.go), then
// re-seed and re-propagate only the fanin/fanout cone of the touched pins.
// Register-only rewiring (merges, splits) is first patched into the
// retained graph (patch.go); an ideal-clock flip re-seeds every register
// and sweeps the retained graph in full. Only rewiring the patch cannot
// prove level-preserving (a combinational or port pin changing nets), a
// Timing change, an incomplete edit record or Invalidate rebuild the
// graph. The forward-arrival and backward-required sweeps are levelized
// and fan out across a worker pool (SetWorkers). Because every propagation
// step is a pure max/min reduction, results are bit-identical for any
// worker count and for incremental versus full runs; the full rebuild
// remains both the fallback and the testing oracle.
//
// Only setup (max-delay) analysis is modeled; the paper does not involve
// hold fixing.
//
// Concurrency: an Engine mutates only itself during Run (worker goroutines
// write disjoint slice elements, joined before Run returns), and a Results
// snapshot is immutable once returned — no lazy caches, no package-level
// state. Concurrent readers of one Results (slacks, regions) need no
// locking. Composition takes no snapshot: the compat graph reads the
// engine's slacks (PinSlack) once, sequentially, right after RunEndpoints,
// and the composition workers read only the per-register copies it made.
// Engines on the same Design must not run while the Design is being
// edited, and an Engine itself is not safe for concurrent use.
package sta

import (
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// Results carries one timing analysis snapshot. Pin-indexed slices are
// addressed by netlist.PinID.
type Results struct {
	Arrival  []float64
	Required []float64
	Slack    []float64

	EndpointStats

	// ClockArrival is the propagated clock arrival (including useful skew)
	// at each register, keyed by instance ID.
	ClockArrival map[netlist.InstID]float64
}

// EndpointStats are an analysis's endpoint statistics, summed in the
// engine's deterministic endpoint order (the sum in TNS makes the order
// observable in the last bits).
type EndpointStats struct {
	// WNS is the worst endpoint slack (0 when nothing fails and min slack
	// is positive — we report the true minimum, which may be positive).
	WNS float64
	// TNS is the sum of negative endpoint slacks (a non-positive number).
	TNS float64
	// FailingEndpoints counts endpoints with negative slack.
	FailingEndpoints int
	// TotalEndpoints counts all checked endpoints.
	TotalEndpoints int
}

// PinSlack returns the slack at a pin (+Inf for unconstrained pins).
func (r *Results) PinSlack(id netlist.PinID) float64 {
	return pinSlack(r.Slack, id)
}

// SlackSource answers per-pin slack queries: a Results snapshot, or an
// Engine's state as of its last Run or RunEndpoints. Readers that need the
// design's current slacks must run the engine after the last edit.
type SlackSource interface {
	PinSlack(id netlist.PinID) float64
}

func pinSlack(slack []float64, id netlist.PinID) float64 {
	if int(id) >= len(slack) {
		return math.Inf(1)
	}
	return slack[id]
}

// RunStats counts how the engine satisfied its Run calls; used by tests
// and benchmarks to assert the incremental path actually engaged. Every
// run is exactly one of the four kinds.
type RunStats struct {
	// FullBuilds counts runs that rebuilt the timing graph from scratch.
	FullBuilds int
	// IncrementalRuns counts runs served by cone re-propagation over the
	// retained graph.
	IncrementalRuns int
	// StructuralDeltas counts runs that patched register-only rewiring
	// (merges, splits, register pin reconnects) into the retained graph.
	StructuralDeltas int
	// Reseeds counts runs that re-seeded and swept the retained graph in
	// full without patching it: an ideal-clock flip, or a touched set too
	// large for the cone worklists to pay off.
	Reseeds int
	// LastConePins is the number of pins re-evaluated by the most recent
	// run over the retained graph, summed over both sweeps (0 after a full
	// build).
	LastConePins int
	// LastKind is "full", "structural", "reseed" or "incremental" for the
	// most recent run.
	LastKind string
	// ClockRegs counts registers whose clock arrival a run recomputed
	// (every register on a full recompute, the registers an edit can have
	// reached on an incremental one); LastClockRegs is the most recent
	// run's count.
	ClockRegs     int
	LastClockRegs int
	// LastSeedLoads counts the register Q-net loads the most recent run
	// recomputed: every connected Q pin on a full build, the Q pins whose
	// net an edit can have reloaded otherwise (the rest reuse the load
	// stored at their last seed).
	LastSeedLoads int
}

// Engine runs timing analysis on a design. The engine may be re-run after
// netlist edits — it watches the design's edit epoch and reuses its cached
// timing graph unless the edits since the previous run rewired more than
// registers. Per-register useful skews persist across runs and survive
// register merges only if re-applied by the caller.
type Engine struct {
	d       *netlist.Design
	skew    map[netlist.InstID]float64
	ideal   bool
	workers int

	// Cached analysis state, valid while `valid` is true.
	g          *timingGraph
	cursor     uint64 // design epoch the cache reflects
	timingSnap netlist.TimingSpec
	idealSnap  bool
	valid      bool

	arr, req, slack []float64
	seedArr         []float64 // launch seed per pin (negInf when unseeded)
	endReq          []float64 // endpoint required per pin (+Inf when none)
	qLoad           []float64 // register Q pin: its net's load at the last seed
	clk             clockState
	endpoints       []int32 // endpoint pins in deterministic check order

	// Scratch for incremental runs (generation-stamped marks).
	gen                    uint32
	pinMark, slackMark     []uint32
	regMark                []uint32 // by instance: queued in dirtyRegs
	dirtyRegs              []netlist.InstID
	endAdded               []int32 // pins that became endpoints this run
	endLost                bool    // some endpoint stopped being one
	fwdQueued, bwdQueued   []uint32
	fwdBuckets, bwdBuckets [][]int32
	slackDirty             []int32
	stats                  RunStats
}

// New returns an analyzer for the design.
func New(d *netlist.Design) *Engine {
	return &Engine{d: d, skew: map[netlist.InstID]float64{}}
}

// SetIdealClocks selects ideal-clock mode: every register's clock arrives
// at time zero (plus its useful skew), regardless of the clock network.
// This is how pre-CTS timing is analyzed in practice — before buffering,
// the raw clock nets are giant stars whose RC delay is meaningless.
// Propagated clocks (the default) follow buffers and gates.
func (e *Engine) SetIdealClocks(on bool) { e.ideal = on }

// SetWorkers bounds the worker pool the levelized arrival/required sweeps
// fan out across, following the composition pipeline's convention: 0 (the
// default) means one worker per available CPU, 1 the sequential path.
// Results are bit-identical for any setting.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// SetSkew assigns a useful clock skew (ps, positive = later clock) to a
// register instance. The next Run picks the change up incrementally.
func (e *Engine) SetSkew(id netlist.InstID, ps float64) {
	if e.skew[id] != ps {
		e.clk.skewDirty = append(e.clk.skewDirty, id)
	}
	if ps == 0 {
		delete(e.skew, id)
		return
	}
	e.skew[id] = ps
}

// Skew returns the useful skew currently assigned to a register.
func (e *Engine) Skew(id netlist.InstID) float64 { return e.skew[id] }

// Invalidate drops the cached timing graph, forcing the next Run to
// rebuild from scratch. Needed only when the design was edited behind the
// netlist API's back (or for benchmarking the full path).
func (e *Engine) Invalidate() { e.valid = false }

// Stats reports how past Run calls were satisfied.
func (e *Engine) Stats() RunStats { return e.stats }

// Summary reports the unified engine counters (engine.Summary): every run over the retained graph (incremental, structural, reseed) is a
// delta, full graph builds are rebuilds.
func (e *Engine) Summary() engine.Summary {
	deltas := e.stats.IncrementalRuns + e.stats.StructuralDeltas + e.stats.Reseeds
	return engine.Summary{
		Updates:  e.stats.FullBuilds + deltas,
		Deltas:   deltas,
		Rebuilds: e.stats.FullBuilds,
		LastKind: e.stats.LastKind,
	}
}

const negInf = math.MaxFloat64 * -1

// Run performs a timing analysis of the design's current state. The first
// run builds the timing graph; later runs reuse it. After parametric edits
// a run re-propagates only the affected cone; register-only rewiring
// (merges, splits) is patched into the graph first; an ideal-clock flip
// re-seeds every register and sweeps the retained graph in full. Only a
// Timing change, Invalidate, an incomplete edit record or rewiring the
// patch cannot prove level-preserving (a combinational or port pin
// changing nets) rebuilds the graph. Either way the returned snapshot is
// bit-identical to a from-scratch analysis.
func (e *Engine) Run() (*Results, error) {
	if err := e.update(); err != nil {
		return nil, err
	}
	return e.snapshot(), nil
}

// RunEndpoints brings the analysis up to date exactly as Run does but
// returns only the endpoint statistics — the same values Run's Results
// carry — without copying the per-pin arrays into a snapshot. The engine's
// PinSlack then reads the slacks a snapshot would hold.
func (e *Engine) RunEndpoints() (EndpointStats, error) {
	if err := e.update(); err != nil {
		return EndpointStats{}, err
	}
	return e.endpointStats(), nil
}

// PinSlack returns a pin's slack as of the last Run or RunEndpoints (+Inf
// for unconstrained pins), read from the engine's state without a copy.
// Edits since that run are not reflected.
func (e *Engine) PinSlack(id netlist.PinID) float64 {
	return pinSlack(e.slack, id)
}

// update brings the engine's working state in sync with the design.
func (e *Engine) update() error {
	d := e.d
	full := !e.valid || d.Timing != e.timingSnap
	var touched []netlist.InstID
	if !full {
		var complete bool
		touched, complete = d.TouchedSince(e.cursor)
		full = !complete
	}

	var err error
	if !full {
		full, err = e.runDelta(touched)
	}
	if full {
		err = e.runFull()
	}
	if err != nil {
		e.valid = false
		return err
	}
	e.cursor = d.Epoch()
	e.timingSnap = d.Timing
	e.idealSnap = e.ideal
	e.valid = true
	return nil
}

// runDelta brings the analysis up to date over the retained graph, after
// patching the touched registers' rewiring into it. It reports rebuild
// when the edits are not of a kind the graph can absorb; the graph may
// then be half patched, and runFull replaces it.
func (e *Engine) runDelta(touched []netlist.InstID) (rebuild bool, err error) {
	d := e.d
	var p *graphPatch
	rewired := d.StructuralEpoch() > e.cursor
	if rewired || d.PinSpace() != e.g.nPins {
		// Only the flow-class record names the rewired instances.
		if d.StructuralEpochOf(netlist.EditClassCTS) > e.cursor {
			return true, nil
		}
		var ok bool
		if p, ok = e.patchGraph(touched); !ok {
			return true, nil
		}
	}
	flip := e.ideal != e.idealSnap
	// A huge touched set re-propagates most of the graph anyway; the plain
	// full sweep is cheaper than worklist bookkeeping.
	all := flip || len(touched)*4 > d.NumInsts()
	if err := e.runIncremental(touched, p, flip, all); err != nil {
		return false, err
	}
	switch {
	case rewired:
		e.stats.StructuralDeltas++
		e.stats.LastKind = "structural"
	case all:
		e.stats.Reseeds++
		e.stats.LastKind = "reseed"
	default:
		e.stats.IncrementalRuns++
		e.stats.LastKind = "incremental"
	}
	return false, nil
}

// runFull rebuilds the graph, seeds and endpoint constraints, then runs
// the two levelized sweeps over everything.
func (e *Engine) runFull() error {
	d := e.d
	g, err := buildGraph(d)
	if err != nil {
		return err
	}
	e.g = g
	n := g.nPins
	e.arr = resize(e.arr, n)
	e.req = resize(e.req, n)
	e.seedArr = resize(e.seedArr, n)
	e.endReq = resize(e.endReq, n)
	e.qLoad = resize(e.qLoad, n)
	e.stats.LastSeedLoads = 0
	for i := 0; i < n; i++ {
		e.seedArr[i] = negInf
		e.endReq[i] = math.Inf(1)
	}

	if _, err := e.clockFull(false); err != nil {
		return err
	}
	e.endpoints = e.endpoints[:0]
	period := d.Timing.ClockPeriod

	d.Insts(func(in *netlist.Inst) {
		switch in.Kind {
		case netlist.KindPort:
			if p := d.OutPin(in); p != nil && p.Net != netlist.NoID && !d.Net(p.Net).IsClock {
				e.seedArr[p.ID] = d.Timing.InputDelay
			}
			if p := d.FindPin(in, netlist.PinData, 0); p != nil && p.Dir == netlist.DirIn && p.Net != netlist.NoID {
				e.endReq[p.ID] = period - d.Timing.OutputDelay
				e.endpoints = append(e.endpoints, int32(p.ID))
			}
		case netlist.KindReg:
			e.seedRegister(in, e.clk.eff[in.ID], nil, nil)
			for b := 0; b < in.Bits(); b++ {
				if dp := d.DPin(in, b); dp != nil && dp.Net != netlist.NoID {
					e.endpoints = append(e.endpoints, int32(dp.ID))
				}
			}
		}
	})

	e.sweepAll()
	e.stats.FullBuilds++
	e.stats.LastConePins = 0
	e.stats.LastKind = "full"
	return nil
}

// sweepAll runs the two levelized sweeps over the whole graph from the
// seeds and endpoint constraints, then recomputes every slack.
func (e *Engine) sweepAll() {
	g, n, workers := e.g, e.g.nPins, e.workers
	if g.levelsStale {
		g.bucketLevels()
	}
	copy(e.arr, e.seedArr)
	g.forward(e.arr, e.seedArr, workers)
	copy(e.req, e.endReq)
	g.backward(e.req, e.endReq, workers)
	e.slack = resize(e.slack, n)
	parallelChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.slack[i] = slackOf(e.arr[i], e.req[i])
		}
	})
}

// seedRegister writes the register's launch seeds (clk→Q arrival) and
// endpoint constraints (D required time) for its effective clock arrival;
// a disconnected pin gets neither. When fwd and bwd are non-nil
// (incremental runs), pins whose seed or constraint changed are pushed
// onto the worklists, and a Q pin's net load is reused unless the run
// marked the pin (launchLoad).
func (e *Engine) seedRegister(in *netlist.Inst, eff float64, fwd, bwd *worklist) {
	d := e.d
	cell := in.RegCell
	req := eff + d.Timing.ClockPeriod - cell.Setup
	for _, pid := range in.Pins {
		p := d.Pin(pid)
		if p.Bit >= cell.Bits {
			continue
		}
		switch p.Kind {
		case netlist.PinOut:
			seed := negInf
			if p.Net != netlist.NoID {
				seed = eff + cell.Intrinsic + cell.DriveRes*e.launchLoad(p, fwd == nil)
			}
			e.setSeed(pid, seed, fwd)
		case netlist.PinData:
			if p.Net != netlist.NoID {
				e.setEndReq(pid, req, bwd)
			} else {
				e.setEndReq(pid, math.Inf(1), bwd)
			}
		}
	}
}

// launchLoad returns the load on the net a register Q pin drives. A full
// run computes it; an incremental run recomputes it only for a pin it
// marked — step 2 of runIncremental marks every pin of a touched instance
// and the driver of every data net an edit can have reloaded — and reuses
// the load stored at the pin's last seed otherwise. A Q pin on a clock net
// is always recomputed: clock-tree edits reload clock nets without marking
// their drivers.
func (e *Engine) launchLoad(p *netlist.Pin, full bool) float64 {
	nt := e.d.Net(p.Net)
	if full || nt.IsClock || e.pinMark[p.ID] == e.gen {
		e.qLoad[p.ID] = e.d.NetLoadCap(nt)
		e.stats.LastSeedLoads++
	}
	return e.qLoad[p.ID]
}

// setSeed sets a pin's launch seed, queueing it when it changed.
func (e *Engine) setSeed(pid netlist.PinID, seed float64, fwd *worklist) {
	if e.seedArr[pid] != seed {
		e.seedArr[pid] = seed
		if fwd != nil {
			fwd.push(int32(pid))
		}
	}
}

// setEndReq sets a pin's endpoint constraint (+Inf: not an endpoint),
// queueing it when it changed. On incremental runs it records the pins
// that become or stop being endpoints for fixEndpoints.
func (e *Engine) setEndReq(pid netlist.PinID, req float64, bwd *worklist) {
	old := e.endReq[pid]
	if old == req {
		return
	}
	e.endReq[pid] = req
	if bwd == nil {
		return
	}
	bwd.push(int32(pid))
	switch {
	case isPosInf(old):
		e.endAdded = append(e.endAdded, int32(pid))
	case isPosInf(req):
		e.endLost = true
	}
}

// fixEndpoints folds the run's endpoint changes into the endpoint list,
// keeping runFull's order — instance ID, then bit — so TNS sums in the
// same order.
func (e *Engine) fixEndpoints() {
	if e.endLost {
		kept := e.endpoints[:0]
		for _, pin := range e.endpoints {
			if !isPosInf(e.endReq[pin]) {
				kept = append(kept, pin)
			}
		}
		e.endpoints = kept
		e.endLost = false
	}
	if len(e.endAdded) == 0 {
		return
	}
	added := e.endAdded
	e.endAdded = e.endAdded[:0]
	less := func(a, b int32) bool {
		pa, pb := e.d.Pin(netlist.PinID(a)), e.d.Pin(netlist.PinID(b))
		if pa.Inst != pb.Inst {
			return pa.Inst < pb.Inst
		}
		return pa.Bit < pb.Bit
	}
	slices.SortFunc(added, func(a, b int32) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	eps := e.endpoints
	if len(eps) == 0 || less(eps[len(eps)-1], added[0]) {
		e.endpoints = append(eps, added...)
		return
	}
	merged := make([]int32, 0, len(eps)+len(added))
	i, j := 0, 0
	for i < len(eps) && j < len(added) {
		if less(added[j], eps[i]) {
			merged = append(merged, added[j])
			j++
		} else {
			merged = append(merged, eps[i])
			i++
		}
	}
	merged = append(merged, eps[i:]...)
	e.endpoints = append(merged, added[j:]...)
}

// growValues extends the per-pin value arrays to a patched graph's pin
// space, keeping every value; a new pin starts as runFull leaves a
// disconnected one.
func (e *Engine) growValues() {
	n := e.g.nPins
	e.arr = extend(e.arr, n, negInf)
	e.req = extend(e.req, n, math.Inf(1))
	e.slack = extend(e.slack, n, math.Inf(1))
	e.seedArr = extend(e.seedArr, n, negInf)
	e.endReq = extend(e.endReq, n, math.Inf(1))
	e.qLoad = extend(e.qLoad, n, 0)
}

func slackOf(arr, req float64) float64 {
	if arr == negInf || math.IsInf(req, 1) {
		return math.Inf(1)
	}
	return req - arr
}

// snapshot assembles an immutable Results from the engine's working state.
func (e *Engine) snapshot() *Results {
	res := &Results{
		Arrival:       append([]float64(nil), e.arr...),
		Required:      append([]float64(nil), e.req...),
		Slack:         append([]float64(nil), e.slack...),
		EndpointStats: e.endpointStats(),
		ClockArrival:  map[netlist.InstID]float64{},
	}
	e.d.Insts(func(in *netlist.Inst) {
		if in.Kind == netlist.KindReg {
			res.ClockArrival[in.ID] = e.clk.eff[in.ID]
		}
	})
	return res
}

// endpointStats recomputes the endpoint statistics over the cached
// endpoint list.
func (e *Engine) endpointStats() EndpointStats {
	st := EndpointStats{WNS: math.Inf(1)}
	for _, pin := range e.endpoints {
		if e.arr[pin] == negInf {
			continue // unreached endpoint: unconstrained path
		}
		s := e.slack[pin]
		if math.IsInf(s, 1) {
			continue
		}
		st.TotalEndpoints++
		if s < st.WNS {
			st.WNS = s
		}
		if s < 0 {
			st.TNS += s
			st.FailingEndpoints++
		}
	}
	if st.TotalEndpoints == 0 {
		st.WNS = 0
	}
	return st
}

// RegDSlack returns the worst slack across the register's connected D pins
// (+Inf when none are constrained).
func RegDSlack(d *netlist.Design, r SlackSource, in *netlist.Inst) float64 {
	worst := math.Inf(1)
	for b := 0; b < in.Bits(); b++ {
		p := d.DPin(in, b)
		if p == nil || p.Net == netlist.NoID {
			continue
		}
		if s := r.PinSlack(p.ID); s < worst {
			worst = s
		}
	}
	return worst
}

// RegQSlack returns the worst slack across the register's connected Q pins
// (+Inf when none are constrained).
func RegQSlack(d *netlist.Design, r SlackSource, in *netlist.Inst) float64 {
	worst := math.Inf(1)
	for b := 0; b < in.Bits(); b++ {
		p := d.QPin(in, b)
		if p == nil || p.Net == netlist.NoID {
			continue
		}
		if s := r.PinSlack(p.ID); s < worst {
			worst = s
		}
	}
	return worst
}

// AssignUsefulSkew computes and applies the local useful-skew move for the
// given registers: the skew that balances each register's D-side and Q-side
// slacks, clamped to ±maxSkew. It returns the number of registers whose
// worst slack improved. The paper applies this to newly composed MBRs
// (Fig. 4) — their constituents were timing compatible, so one shared skew
// helps all bits. It reads the slacks of the engine's last Run or
// RunEndpoints; the skews it sets take effect at the next run.
func (e *Engine) AssignUsefulSkew(regs []*netlist.Inst, maxSkew float64) int {
	improved := 0
	for _, in := range regs {
		ds := RegDSlack(e.d, e, in)
		qs := RegQSlack(e.d, e, in)
		if math.IsInf(ds, 1) || math.IsInf(qs, 1) {
			continue
		}
		// min(ds+s, qs-s) is maximized at s = (qs-ds)/2.
		s := (qs - ds) / 2
		if s > maxSkew {
			s = maxSkew
		}
		if s < -maxSkew {
			s = -maxSkew
		}
		before := math.Min(ds, qs)
		after := math.Min(ds+s, qs-s)
		if after > before+1e-12 {
			e.SetSkew(in.ID, e.skew[in.ID]+s)
			improved++
		}
	}
	return improved
}

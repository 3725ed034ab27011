// Package metrics maintains the flow's design-level report aggregates —
// live cell, register and composable-register counts, total placed area,
// and total signal-net wirelength — incrementally across netlist edits,
// so a measurement point costs O(touched) instead of the O(design) walks
// of the batch oracles (netlist.NumInsts, Registers, TotalArea,
// Wirelength).
//
// The Tracker consumes the netlist's per-edit-class touched records. Every
// mutation notes the instance it touched, so the set of instances edited
// since the last sync is exactly what the records report; from each touched
// instance the Tracker derives the signal nets whose geometry may have
// moved (the nets the instance was on at the last sync plus the nets it is
// on now) and re-measures only those, against a per-net HPWL cache. All
// aggregates are integers, so incremental maintenance is exact — there is
// no float accumulation order to preserve — and the batch oracles remain
// the equality reference the tracker is tested against. Composability
// (compat.Exclusion) reads only the register itself: its fixed/size-only
// flags, its clock pin's net, its cell class and width. Every edit to any
// of those touches the register, so the touched records keep that count
// exact too.
//
// A CTS-class touched instance re-snaps its instance-side contribution
// only: CTS-class edits (buffer add/move/remove, clock-net rewires — see
// place.LegalizeIncremental: legalization moves only the instances it is
// given) never change a signal net's pin set or member positions, so the
// per-net caches stay valid. A CTS-class structural edit would break that
// rule; while one is past the cursor, CTS-class instances dirty their
// signal nets like flow-class ones.
package metrics

import (
	"repro/internal/compat"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// Aggregates is the tracked slice of the design state.
type Aggregates struct {
	// Cells is the number of live instances (netlist.NumInsts).
	Cells int
	// Regs is the number of live registers (len(netlist.Registers())).
	Regs int
	// CompRegs is the number of live registers compat.Exclusion does not
	// exclude: the node count of the compatibility graph.
	CompRegs int
	// AreaDBU2 is the total footprint area of live instances
	// (netlist.TotalArea).
	AreaDBU2 int64
	// SignalWLDBU is the total HPWL over live signal (non-clock) nets —
	// the signal component of netlist.Wirelength.
	SignalWLDBU int64
}

// Stats reports how syncs were satisfied.
type Stats struct {
	// Syncs counts Sync calls that found the design edited; Cleans counts
	// calls with nothing to do.
	Syncs  int
	Cleans int
	// Deltas counts syncs served from the touched records alone.
	Deltas int
	// FullRebuilds counts from-scratch rebuilds (first sync, Invalidate,
	// a cursor older than netlist.ResetTouchedLog).
	FullRebuilds int
	// InstsSynced and NetsSynced count the delta paths' actual work.
	InstsSynced int
	NetsSynced  int
	// LastKind names the most recent sync's outcome: "clean", "delta" or
	// "rebuild".
	LastKind string
}

// instSnap is one instance's contribution at the last sync. The zero
// value is a dead or never-seen instance's.
type instSnap struct {
	live  bool
	isReg bool
	comp  bool // a register compat.Exclusion accepts
	area  int64
	// nets are the signal nets the instance's pins were connected to,
	// deduplicated. They bound which per-net cache entries an edit to this
	// instance can invalidate.
	nets []netlist.NetID
}

// Tracker incrementally maintains Aggregates for one design.
type Tracker struct {
	d      *netlist.Design
	cursor uint64
	valid  bool

	agg Aggregates
	// snaps is indexed by InstID and netWL, each signal net's cached HPWL
	// (0 for clock and dead nets), by NetID. Both grow with the design's
	// ID spaces and are reused across rebuilds: a snapshot keeps its net
	// buffer, so a rebuild allocates nothing per instance.
	snaps []instSnap
	netWL []int64
	// netGen/netStamp dedupe a sync's dirty signal nets by NetID: a net
	// is queued iff its stamp equals netGen. dirty and netBuf are the
	// sync's reused buffers, flowT and ctsT those of its touched reads.
	netGen      uint32
	netStamp    []uint32
	dirty       []netlist.NetID
	netBuf      []netlist.NetID
	flowT, ctsT []netlist.InstID

	stats Stats
}

// New returns a tracker for the design. The first Sync (or Aggregates
// call) performs the full baseline walk.
func New(d *netlist.Design) *Tracker {
	return &Tracker{d: d}
}

// Aggregates syncs the tracker and returns the current aggregates.
func (t *Tracker) Aggregates() Aggregates {
	t.Sync()
	return t.agg
}

// Stats returns the sync counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Invalidate drops the retained state; the next sync rebuilds from
// scratch. Required after edits that bypassed the netlist API.
func (t *Tracker) Invalidate() { t.valid = false }

// Summary reports the uniform engine.Summary counters.
func (t *Tracker) Summary() engine.Summary {
	return engine.Summary{
		Updates:  t.stats.Syncs,
		Deltas:   t.stats.Deltas,
		Rebuilds: t.stats.FullRebuilds,
		LastKind: t.stats.LastKind,
	}
}

// Sync brings the aggregates up to date with the design.
func (t *Tracker) Sync() {
	if t.valid && t.d.Epoch() == t.cursor {
		t.stats.Cleans++
		t.stats.LastKind = "clean"
		return
	}
	t.stats.Syncs++
	if !t.valid {
		t.rebuild()
		return
	}
	var complete bool
	if t.flowT, complete = t.d.TouchedSinceClass(t.cursor, netlist.EditClassFlow, t.flowT[:0]); !complete {
		t.rebuild()
		return
	}
	// The CTS-class read at the same cursor is complete too.
	t.ctsT, _ = t.d.TouchedSinceClass(t.cursor, netlist.EditClassCTS, t.ctsT[:0])
	t.grow()
	// Collect the dirty signal nets before snapshots move: each touched
	// instance invalidates the nets it was on at the last sync plus the
	// nets it is on now. A CTS-class edit changes no signal net, so a
	// CTS-class instance dirties none unless the CTS class made a
	// structural edit.
	t.netGen++
	dirty := t.dirty[:0]
	add := func(ids []netlist.InstID) {
		for _, id := range ids {
			t.netBuf = t.signalNets(id, t.netBuf[:0])
			for _, nets := range [2][]netlist.NetID{t.snaps[id].nets, t.netBuf} {
				for _, nid := range nets {
					if t.netStamp[nid] != t.netGen {
						t.netStamp[nid] = t.netGen
						dirty = append(dirty, nid)
					}
				}
			}
		}
	}
	add(t.flowT)
	if t.d.StructuralEpochOf(netlist.EditClassCTS) > t.cursor {
		add(t.ctsT)
	}
	t.dirty = dirty
	for _, ids := range [2][]netlist.InstID{t.flowT, t.ctsT} {
		for _, id := range ids {
			t.syncInst(id)
		}
	}
	for _, nid := range dirty {
		t.syncNet(nid)
	}
	t.stats.Deltas++
	t.stats.LastKind = "delta"
	t.cursor = t.d.Epoch()
}

// grow extends the ID-indexed state to the design's current ID spaces.
func (t *Tracker) grow() {
	if n := t.d.InstSpace(); n > len(t.snaps) {
		t.snaps = append(t.snaps, make([]instSnap, n-len(t.snaps))...)
	}
	if n := t.d.NetSpace(); n > len(t.netWL) {
		t.netWL = append(t.netWL, make([]int64, n-len(t.netWL))...)
		t.netStamp = append(t.netStamp, make([]uint32, n-len(t.netStamp))...)
	}
}

// signalNets returns the deduplicated live signal nets of the instance's
// pins, appended to buf. A nil or dead instance has none.
func (t *Tracker) signalNets(id netlist.InstID, buf []netlist.NetID) []netlist.NetID {
	return t.d.InstNets(id, true, buf)
}

// syncInst replaces one instance's snapshot, folding the contribution
// delta into the aggregates. Idempotent: a second call with an unchanged
// instance is a no-op.
func (t *Tracker) syncInst(id netlist.InstID) {
	t.stats.InstsSynced++
	old := &t.snaps[id]
	if old.live {
		t.agg.Cells--
		t.agg.AreaDBU2 -= old.area
		if old.isReg {
			t.agg.Regs--
		}
		if old.comp {
			t.agg.CompRegs--
		}
	}
	in := t.d.Inst(id)
	if in == nil {
		*old = instSnap{nets: old.nets[:0]}
		return
	}
	t.snapInst(in, old)
}

// snapInst fills s from the live instance in and adds its contribution to
// the instance-side aggregates. s.nets is reused as the net buffer.
func (t *Tracker) snapInst(in *netlist.Inst, s *instSnap) {
	s.live = true
	s.isReg = in.Kind == netlist.KindReg
	s.comp = false
	if s.isReg {
		_, excluded := compat.Exclusion(t.d, in)
		s.comp = !excluded
	}
	s.area = in.Area()
	s.nets = t.signalNets(in.ID, s.nets[:0])
	t.agg.Cells++
	t.agg.AreaDBU2 += s.area
	if s.isReg {
		t.agg.Regs++
	}
	if s.comp {
		t.agg.CompRegs++
	}
}

// syncNet re-measures one signal net against its cache entry.
func (t *Tracker) syncNet(id netlist.NetID) {
	t.stats.NetsSynced++
	var cur int64
	if n := t.d.Net(id); n != nil && !n.IsClock {
		cur = t.d.NetHPWL(n)
	}
	t.agg.SignalWLDBU += cur - t.netWL[id]
	t.netWL[id] = cur
}

// rebuild re-derives everything from the design. Every instance slot is
// reset first, so a dead instance's slot reads as dead again; snapshots
// keep their net buffers.
func (t *Tracker) rebuild() {
	t.grow()
	t.agg = Aggregates{}
	for i := range t.snaps {
		t.snaps[i] = instSnap{nets: t.snaps[i].nets[:0]}
	}
	t.d.Insts(func(in *netlist.Inst) { t.snapInst(in, &t.snaps[in.ID]) })
	clear(t.netWL)
	t.d.Nets(func(n *netlist.Net) {
		if n.IsClock {
			return
		}
		wl := t.d.NetHPWL(n)
		t.netWL[n.ID] = wl
		t.agg.SignalWLDBU += wl
	})
	t.cursor = t.d.Epoch()
	t.valid = true
	t.stats.FullRebuilds++
	t.stats.LastKind = "rebuild"
}

package netlist

import "slices"

// Edit tracking: every timing-relevant mutation of a Design bumps a
// monotonically increasing edit epoch and records which instance it
// touched, so an incremental consumer (the STA engine) can find out, at
// any later point, whether anything changed since its last look and — when
// the record is still complete — exactly which instances were involved.
//
// Three classes of edit are distinguished:
//
//   - structural: data-path connectivity changed (a pin attached to or
//     detached from a non-clock net). The timing-graph topology changed
//     around the touched instances: a consumer patches what it can prove
//     local (the STA engine folds register-only rewiring, as merges and
//     splits do, into its retained graph) and rebuilds otherwise.
//   - clock: connectivity of a clock net changed. Data arcs are unaffected
//     (clock nets never carry data arcs), so only the epoch moves, as for
//     a parametric edit; propagated clock arrivals must be recomputed.
//   - parametric: geometry or electrical parameters changed (MoveInst,
//     ResizeRegister). The graph topology survives; only delays, loads and
//     seeds in the neighbourhood of the touched instances move.
//
// Orthogonally to those semantic classes, every edit belongs to an *edit
// class* — a scope tag that routes the touched record into a per-class
// record. EditClassFlow is the default: ordinary flow edits (moves,
// merges, resizes, skews) land there.
// The retained clock-tree engine tags its internal buffer/net churn
// EditClassCTS, which keeps it out of the flow record: a CTS repair
// touches thousands of instances, and a consumer that reads only the flow
// record (the STA engine's graph patch, the CTS engine's legalizer) never
// walks them. Epochs are shared across classes (one monotonic
// counter), only the touched record is partitioned.
//
// Each class's record is unbounded, so it never loses an edit: a dense
// per-instance epoch of the newest touch, plus the touches in epoch order.
// A touch that supersedes an instance's older entry leaves that entry
// stale, and once stale entries are the majority the list is compacted to
// each instance's newest entry. A stale entry never counts towards a read,
// so compaction changes no cursor's answer, and the list stays within
// twice the instances touched since the last ResetTouchedLog. Only
// ResetTouchedLog makes a record incomplete, for cursors taken before it.
//
// All edits must go through the Design methods (Connect, Disconnect,
// MoveInst, ResizeRegister, ...); writing Inst.Pos or pin/net fields
// directly bypasses tracking and leaves incremental consumers stale.

// EditClass scopes an edit's touched record to one consumer group.
type EditClass uint8

const (
	// EditClassFlow is the default class: ordinary design edits.
	EditClassFlow EditClass = iota
	// EditClassCTS tags the retained clock-tree engine's internal edits
	// (buffer adds/moves/removals, leaf-net rewires). They bump the shared
	// epochs but are recorded in a separate record, invisible to
	// EditClassFlow consumers.
	EditClassCTS

	numEditClasses
)

type touchedEntry struct {
	epoch uint64
	inst  InstID
}

// classRecord is one edit class's touched record.
type classRecord struct {
	// last is, per InstID, the epoch of the instance's newest touch since
	// the last reset (0 = none). An entry is live iff its epoch equals its
	// instance's last.
	last []uint64
	// ents holds the touches in ascending epoch order; stale counts the
	// entries a newer touch of the same instance superseded.
	ents  []touchedEntry
	stale int
}

// note records a touch of inst at epoch, which exceeds every recorded
// epoch. A touch of the instance the newest entry already names only
// moves that entry's epoch forward: bursts of edits to one instance (a
// merge's pin-by-pin rewiring, a legalizer's moves) take one entry. The
// entry list grows by doubling, not by append's 1.25× for large slices: a
// design build touches every instance, and the smaller steps allocate
// five times the list's final size on the way.
func (r *classRecord) note(inst InstID, epoch uint64) {
	if int(inst) >= len(r.last) {
		r.last = append(r.last, make([]uint64, int(inst)+1-len(r.last))...)
	}
	if n := len(r.ents); n > 0 && r.ents[n-1].inst == inst {
		r.ents[n-1].epoch = epoch
		r.last[inst] = epoch
		return
	}
	if r.last[inst] != 0 {
		r.stale++
	}
	r.last[inst] = epoch
	if len(r.ents) == cap(r.ents) {
		r.ents = slices.Grow(r.ents, len(r.ents)+1)
	}
	r.ents = append(r.ents, touchedEntry{epoch: epoch, inst: inst})
	if 2*r.stale > len(r.ents) {
		r.compact()
	}
}

// compact drops the stale entries, keeping the live ones in order.
func (r *classRecord) compact() {
	live := r.ents[:0]
	for _, ent := range r.ents {
		if r.last[ent.inst] == ent.epoch {
			live = append(live, ent)
		}
	}
	r.ents = live
	r.stale = 0
}

// editLog is the per-Design edit tracker. The zero value is ready to use.
type editLog struct {
	epoch           uint64
	structuralEpoch uint64
	// classStructural is the epoch of each edit class's last structural
	// edit.
	classStructural [numEditClasses]uint64
	// class is the edit class subsequent edits are recorded under.
	class EditClass
	// trackedFrom is the epoch of the last ResetTouchedLog: a read is
	// complete iff its cursor is at or past it.
	trackedFrom uint64
	records     [numEditClasses]classRecord
}

// Epoch returns the design's current edit epoch. It increases by at least
// one on every timing-relevant mutation.
func (d *Design) Epoch() uint64 { return d.edits.epoch }

// StructuralEpoch returns the epoch of the last data-path connectivity
// change. A consumer whose cache was built at cursor c must rebuild its
// graph topology when StructuralEpoch() > c.
func (d *Design) StructuralEpoch() uint64 { return d.edits.structuralEpoch }

// StructuralEpochOf is StructuralEpoch restricted to one edit class: the
// epoch of the last data-path connectivity change recorded under it. A
// consumer that patches its graph from one class's touched record checks
// that no other class made a structural edit since its cursor.
func (d *Design) StructuralEpochOf(c EditClass) uint64 {
	if c >= numEditClasses {
		return 0
	}
	return d.edits.classStructural[c]
}

// EditClass returns the class new edits are currently recorded under.
func (d *Design) EditClass() EditClass { return d.edits.class }

// SetEditClass routes subsequent edits' touched records to the given
// class's record and returns the previous class. Prefer WithEditClass for
// scoped use.
func (d *Design) SetEditClass(c EditClass) EditClass {
	prev := d.edits.class
	if c < numEditClasses {
		d.edits.class = c
	}
	return prev
}

// WithEditClass runs fn with the edit class temporarily switched, restoring
// the previous class afterwards (also on panic).
func (d *Design) WithEditClass(c EditClass, fn func()) {
	prev := d.SetEditClass(c)
	defer d.SetEditClass(prev)
	fn()
}

// ResetTouchedLog empties every class's touched record, freeing its
// memory, and marks all past edits untracked: a read with an older cursor
// reports an incomplete record. Callers that create their incremental
// consumers *after* a bulk construction phase — the flow does, its
// engines' first looks are full rebuilds by definition — use it to drop
// the build churn that preceded them. A consumer with an older cursor
// treats the incomplete read as its Invalidate.
func (d *Design) ResetTouchedLog() {
	d.edits.records = [numEditClasses]classRecord{}
	d.edits.trackedFrom = d.edits.epoch
}

// TouchedSinceClass appends to buf the IDs of instances touched by edits
// of the given class after the given epoch, most recent touch first and
// deduplicated, and reports whether the record is complete: false only
// for a cursor older than the last ResetTouchedLog, after which the
// caller must assume anything changed. Returned IDs may refer to
// since-removed instances (Inst returns nil). It writes nothing but buf,
// so concurrent readers with their own buffers may share a design, and a
// buffer with room allocates nothing.
func (d *Design) TouchedSinceClass(epoch uint64, class EditClass, buf []InstID) (touched []InstID, complete bool) {
	if class >= numEditClasses || epoch < d.edits.trackedFrom {
		return buf, false
	}
	r := &d.edits.records[class]
	for i := len(r.ents) - 1; i >= 0 && r.ents[i].epoch > epoch; i-- {
		if ent := r.ents[i]; r.last[ent.inst] == ent.epoch {
			buf = append(buf, ent.inst)
		}
	}
	return buf, true
}

// noteTouch records a parametric edit to the instance under the current
// edit class.
func (d *Design) noteTouch(inst InstID) {
	e := &d.edits
	e.epoch++
	e.records[e.class].note(inst, e.epoch)
}

// noteStructural records a data-path connectivity edit at the instance.
func (d *Design) noteStructural(inst InstID) {
	d.noteTouch(inst)
	e := &d.edits
	e.structuralEpoch = e.epoch
	e.classStructural[e.class] = e.epoch
}

// PinSpace returns an exclusive upper bound on every PinID ever issued by
// the design (including pins of removed instances). Pin-indexed slices
// sized to PinSpace can be addressed by any PinID without bounds checks.
func (d *Design) PinSpace() int { return len(d.pins) }

// InstSpace is PinSpace's counterpart for instance IDs: an exclusive
// upper bound on every InstID ever issued, removed instances included.
func (d *Design) InstSpace() int { return len(d.insts) }

// NetSpace is PinSpace's counterpart for net IDs.
func (d *Design) NetSpace() int { return len(d.nets) }

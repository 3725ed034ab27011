package place

import (
	"repro/internal/geom"
	"repro/internal/netlist"
)

// Legalizer retains the obstacle occupancy between incremental
// legalization rounds. LegalizeIncremental rebuilds its row occupancy from
// every instance in the design on every call — an O(design) scan that
// dwarfs the actual placement work when the moving set is small and
// recurring, as in the retained clock-tree engine's per-update
// re-legalization. A Legalizer pays that scan once, then keeps the
// occupancy in sync from the edit log (Sync) and answers each round in
// time proportional to the edits and the moving set.
//
// Exactness: the occupancy is the set union of the obstacle rects, which
// is order-independent, and Legalize funnels through the same
// legalizeInto as the batch path — so for the same design state,
// Legalize(insts) and LegalizeIncremental(d, insts) move every instance
// to the same site. The cts oracle tests exercise this equivalence under
// churn.
type Legalizer struct {
	d  *netlist.Design
	rs *rowSpace
	// blocked records the rect each obstacle currently occupies in rs, so
	// Sync can give back exactly what an edited instance contributed.
	blocked map[netlist.InstID]geom.Rect
}

// NewLegalizer builds the occupancy from the design's current state.
func NewLegalizer(d *netlist.Design) *Legalizer {
	l := &Legalizer{d: d, rs: newRowSpace(d), blocked: map[netlist.InstID]geom.Rect{}}
	d.Insts(func(in *netlist.Inst) {
		if obstacle(in) {
			b := in.Bounds()
			l.rs.block(b)
			l.blocked[in.ID] = b
		}
	})
	return l
}

// obstacle mirrors LegalizeIncremental's obstacle predicate: zero-area
// instances (ports) never block, and clock buffers yield to logic (see
// LegalizeIncremental).
func obstacle(in *netlist.Inst) bool {
	return in != nil && in.Area() > 0 && in.Kind != netlist.KindClockBuf
}

// Sync folds the given edited instances (moved, resized, added or
// removed) into the occupancy. Callers obtain the list from the design's
// touched record since their last Sync; an incomplete record requires a
// new Legalizer instead.
func (l *Legalizer) Sync(touched []netlist.InstID) {
	for _, id := range touched {
		if b, ok := l.blocked[id]; ok {
			l.rs.unblock(b)
			delete(l.blocked, id)
		}
		if in := l.d.Inst(id); obstacle(in) {
			b := in.Bounds()
			l.rs.block(b)
			l.blocked[in.ID] = b
		}
	}
}

// Legalize places the given instances exactly as LegalizeIncremental
// would on the current design state. The instances' spans are withdrawn
// for the round and settled afterwards, so movers never block themselves
// and obstacle-eligible movers re-enter the occupancy at their final
// sites.
func (l *Legalizer) Legalize(insts []*netlist.Inst) *Result {
	for _, in := range insts {
		if b, ok := l.blocked[in.ID]; ok {
			l.rs.unblock(b)
			delete(l.blocked, in.ID)
		}
	}
	res := legalizeInto(l.d, l.rs, insts)
	failed := make(map[netlist.InstID]bool, len(res.Failed))
	for _, in := range res.Failed {
		failed[in.ID] = true
	}
	// placeOne blocked each placed mover so later movers saw it; withdraw
	// those temporary spans, then settle the obstacle-eligible movers.
	for _, in := range insts {
		if !failed[in.ID] {
			l.rs.unblock(in.Bounds())
		}
	}
	for _, in := range insts {
		if obstacle(l.d.Inst(in.ID)) {
			b := in.Bounds()
			l.rs.block(b)
			l.blocked[in.ID] = b
		}
	}
	return res
}

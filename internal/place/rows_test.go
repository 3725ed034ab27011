package place

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// scanInRow is the row-search oracle: a left-to-right walk over every
// blocked span (sorted by lo, overlaps allowed) that tries each free gap,
// clipped to the core [coreLo, coreHi), and keeps the first of the closest
// positions.
func scanInRow(coreLo, coreHi, siteW int64, spans [][2]int64, targetX, w int64) (int64, bool) {
	best, found := int64(0), false
	tryGap := func(glo, ghi int64) {
		if ghi-glo < w {
			return
		}
		x := clamp(targetX, glo, ghi-w)
		x = snap(x, coreLo, siteW)
		if x < glo {
			x += siteW
		}
		if x+w > ghi {
			return
		}
		if !found || abs64(x-targetX) < abs64(best-targetX) {
			best, found = x, true
		}
	}
	prev := coreLo
	for _, sp := range spans {
		if sp[0] > prev {
			tryGap(prev, min(sp[0], coreHi))
		}
		if sp[1] > prev {
			prev = sp[1]
		}
	}
	if coreHi > prev {
		tryGap(prev, coreHi)
	}
	return best, found
}

func rawSpans(rw *row) [][2]int64 {
	out := make([][2]int64, len(rw.raw))
	for i, s := range rw.raw {
		out[i] = [2]int64{s.lo, s.hi}
	}
	return out
}

// checkBounds asserts a fresh row's invariants: the union is disjoint,
// sorted and non-touching, and every block's bound is at least the width
// of each clipped gap overlapping the block.
func checkBounds(t *testing.T, rs *rowSpace, rw *row) {
	t.Helper()
	if rw.stale {
		return
	}
	u := rw.union
	for i := 1; i < len(u); i++ {
		if u[i].lo <= u[i-1].hi {
			t.Fatalf("union spans %v and %v touch or overlap", u[i-1], u[i])
		}
	}
	for k := 0; k <= len(u); k++ {
		glo, ghi := rs.gap(u, k)
		if ghi <= glo {
			continue
		}
		for b := rs.blockOf(glo); b <= rs.blockOf(ghi-1); b++ {
			if rw.bound[b] < ghi-glo {
				t.Fatalf("block %d bound %d below gap [%d,%d)", b, rw.bound[b], glo, ghi)
			}
		}
	}
}

// FuzzRowSearchMatchesScan drives one row through random blocks and
// unblocks — overlapping, off-grid, reaching past both core edges — and
// checks every budgeted search against the scan oracle, including targets
// outside the core and budgets from -1 (none) to the core width.
func FuzzRowSearchMatchesScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 20} {
		f.Add(seed, uint8(40), false)
		f.Add(seed, uint8(200), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8, coarse bool) {
		rng := rand.New(rand.NewSource(seed))
		coreLo := int64(rng.Intn(4)) * 150
		coreW := int64(2000 + rng.Intn(30000))
		d := netlist.NewDesign("f", geom.RectWH(coreLo, 0, coreW, 1200), testLib)
		d.SiteW = 100
		d.RowH = 1200
		rs := newRowSpace(d)
		coreHi := coreLo + coreW
		// coord draws an x: on a 50-unit grid when coarse, so ties and
		// touching spans are common, else anywhere.
		coord := func(lo, hi int64) int64 {
			v := lo + rng.Int63n(hi-lo)
			if coarse {
				v -= v % 50
			}
			return v
		}
		var live []geom.Rect
		for op := 0; op < int(nOps); op++ {
			switch c := rng.Intn(10); {
			case c < 5:
				lo := coord(coreLo-3000, coreHi+3000)
				b := geom.RectWH(lo, 0, 1+coord(0, 4000), 1200)
				if c == 0 && len(live) > 0 {
					b = live[rng.Intn(len(live))] // an exact duplicate
				}
				rs.block(b)
				live = append(live, b)
			case c < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				rs.unblock(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				rw := &rs.rows[0]
				targetX := coord(coreLo-4000, coreHi+4000)
				w := 1 + coord(0, 5000)
				limit := int64(-1)
				if rng.Intn(4) > 0 {
					limit = coord(0, coreW+1)
				}
				want, ok := scanInRow(coreLo, coreHi, d.SiteW, rawSpans(rw), targetX, w)
				if ok && limit >= 0 && abs64(want-targetX) >= limit {
					ok = false
				}
				got, gotOK := rs.bestInRow(0, targetX, w, limit)
				if gotOK != ok || ok && got != want {
					t.Fatalf("target %d w %d limit %d spans %v: got (%d,%v) want (%d,%v)",
						targetX, w, limit, rawSpans(rw), got, gotOK, want, ok)
				}
				checkBounds(t, rs, rw)
			}
		}
	})
}

func TestRowSearchLeftWinsTies(t *testing.T) {
	d := newDesign(10000, 1200)
	rs := newRowSpace(d)
	// Free gaps [0,2000) and [4000,10000) around a target at 2500: a
	// 1000-wide cell lands at 1000 or 4000, both 1500 away.
	rs.block(geom.RectWH(2000, 0, 2000, 1200))
	for _, limit := range []int64{-1, 1501} {
		if x, ok := rs.bestInRow(0, 2500, 1000, limit); !ok || x != 1000 {
			t.Fatalf("limit %d: got (%d,%v), want the left slot 1000", limit, x, ok)
		}
	}
	if _, ok := rs.bestInRow(0, 2500, 1000, 1500); ok {
		t.Fatal("a slot exactly at the budget must not qualify")
	}
}

// TestLegalizeStaysInsideCore is the regression for a gap ending at an
// obstacle beyond the core's right edge: the cell used to land across
// the edge.
func TestLegalizeStaysInsideCore(t *testing.T) {
	d := newDesign(3000, 2400)
	f := addReg(t, d, "fixed", 1, 3500, 0)
	f.Fixed = true
	m := addReg(t, d, "m", 1, 2500, 0)
	res := LegalizeIncremental(d, []*netlist.Inst{m})
	if len(res.Failed) != 0 {
		t.Fatal("placement failed")
	}
	if m.Pos != (geom.Point{X: 2000, Y: 0}) {
		t.Fatalf("placed at %v, want (2000,0)", m.Pos)
	}
	for _, v := range CheckLegal(d) {
		if v.Inst == m {
			t.Fatalf("violation: %v", v)
		}
	}
}

// TestRowSpaceBoundsTrackBlocks checks the incremental union and bounds
// against a fresh rebuild after every block of a random fill.
func TestRowSpaceBoundsTrackBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := newDesign(64000, 1200)
	rs := newRowSpace(d)
	rs.bestInRow(0, 0, 100, -1) // make the row fresh
	for i := 0; i < 400; i++ {
		lo := int64(rng.Intn(66000)) - 1000
		rs.block(geom.RectWH(lo, 0, int64(100+rng.Intn(2000)), 1200))
		rw := &rs.rows[0]
		checkBounds(t, rs, rw)
		fresh := row{raw: rw.raw, stale: true}
		rs.rebuild(&fresh)
		if !sort.SliceIsSorted(rw.raw, func(a, b int) bool { return rw.raw[a].lo < rw.raw[b].lo }) {
			t.Fatal("raw spans out of order")
		}
		if len(fresh.union) != len(rw.union) {
			t.Fatalf("incremental union has %d spans, rebuild %d", len(rw.union), len(fresh.union))
		}
		for k := range fresh.union {
			if fresh.union[k] != rw.union[k] {
				t.Fatalf("union span %d: %v, rebuild %v", k, rw.union[k], fresh.union[k])
			}
		}
	}
}

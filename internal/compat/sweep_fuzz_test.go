package compat

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/scan"
)

// FuzzSweepMatchesPairScan checks the bucketed grid sweep against the
// all-pairs pairTest scan on random registers: a few functional keys, scan
// signatures under a plan that does or does not allow cross-chain moves,
// slacks on a coarse lattice (so the slack-difference bound and
// the sign tests are hit exactly), and move regions that are zero-area, sit
// on the core edge, start or end on a grid-cell boundary, or lie partly or
// wholly outside the core. The sweep's adjacency must equal the scan's row
// for row, and it may test no more pairs than share a key.
func FuzzSweepMatchesPairScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 20} {
		f.Add(seed, uint8(60), uint8(0), uint8(2))
		f.Add(seed, uint8(200), uint8(3), uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, workers, nkeys uint8) {
		rng := rand.New(rand.NewSource(seed))
		// 720720 is divisible by 1..16, so lattice coordinates below fall
		// exactly on the cell boundaries of many grid dimensions.
		const span = 720720
		core := geom.RectWH(int64(rng.Intn(5))*1000, int64(rng.Intn(5))*1000, span, span)
		// coord draws a coordinate around [lo, lo+span]: on a cell-boundary
		// lattice, on the core edge, outside the core, or anywhere.
		coord := func(lo int64) int64 {
			switch rng.Intn(4) {
			case 0:
				q := int64(1 + rng.Intn(16))
				return lo + span/q*int64(rng.Intn(int(q)+1))
			case 1:
				return lo + span*int64(rng.Intn(2))
			case 2:
				return lo - span/4 + rng.Int63n(span+span/2)
			default:
				return lo + rng.Int63n(span+1)
			}
		}
		slack := func() float64 { return float64(rng.Intn(13)-6) * 50 }

		infos := make([]*RegInfo, n)
		sigs := make([]staticSig, n)
		for i := range infos {
			x0, x1 := coord(core.Lo.X), coord(core.Lo.X)
			y0, y1 := coord(core.Lo.Y), coord(core.Lo.Y)
			if rng.Intn(4) == 0 {
				x1, y1 = x0, y0 // zero-area
			}
			r := geom.Rect{
				Lo: geom.Point{X: min(x0, x1), Y: min(y0, y1)},
				Hi: geom.Point{X: max(x0, x1), Y: max(y0, y1)},
			}
			infos[i] = &RegInfo{DSlack: slack(), QSlack: slack(), Region: r}
			sigs[i] = staticSig{
				funcKey: funcKey{GateGroup: rng.Intn(1 + int(nkeys%4))},
				Slot: scan.Slot{
					Scanned:   rng.Intn(2) == 0,
					Chain:     rng.Intn(2),
					Partition: rng.Intn(2),
					Ordered:   rng.Intn(3) == 0,
				},
			}
		}

		opts := DefaultOptions()
		g := &Graph{Regs: infos, Plan: &scan.Plan{AllowCrossChain: rng.Intn(2) == 0}}
		g.sweep(core, opts, sigs, 1+int(workers%4))
		got := g.Adj

		want, sameKey := pairScan(g, opts, sigs)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("node %d: sweep row %v, scan row %v", i, got[i], want[i])
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("node %d: sweep row %v, scan row %v", i, got[i], want[i])
				}
			}
		}
		if st := g.Stats(); st.PairsTested > sameKey {
			t.Fatalf("sweep tested %d pairs, only %d share a key", st.PairsTested, sameKey)
		}
	})
}

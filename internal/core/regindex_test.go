package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// FuzzRegIndexMatchesScan checks the blocker index's bucket grid against a
// scan of every center: inBox must visit exactly the centers inside the
// box, each once. Centers are random with duplicates (a small spread
// stacks many on one point); boxes are random, degenerate (a point or a
// line), inverted, outside the indexed bounds, or aligned to cell edges.
func FuzzRegIndexMatchesScan(f *testing.F) {
	f.Add(int64(1), uint16(0), uint32(1000))
	f.Add(int64(2), uint16(1), uint32(0))
	f.Add(int64(3), uint16(37), uint32(5))
	f.Add(int64(4), uint16(600), uint32(400000))
	f.Add(int64(5), uint16(2000), uint32(90))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spread uint32) {
		n %= 3000
		rng := rand.New(rand.NewSource(seed))
		coord := func() int64 { return int64(rng.Int63n(int64(spread)+1)) - int64(spread)/3 }
		pts := make([]geom.Point, n)
		ids := make([]netlist.InstID, n)
		for i := range pts {
			if i > 0 && rng.Intn(4) == 0 {
				pts[i] = pts[rng.Intn(i)] // duplicate center
			} else {
				pts[i] = geom.Point{X: coord(), Y: coord()}
			}
			ids[i] = netlist.InstID(i)
		}
		ri := buildRegIndex(pts, ids)

		// Cell edges, the bounds and points just past them.
		var edgesX, edgesY []int64
		for c := -1; c <= ri.nx+1; c++ {
			x := ri.bounds.Lo.X + int64(c)*ri.cw
			edgesX = append(edgesX, x-1, x, x+1)
		}
		for c := -1; c <= ri.ny+1; c++ {
			y := ri.bounds.Lo.Y + int64(c)*ri.ch
			edgesY = append(edgesY, y-1, y, y+1)
		}
		pick := func(edges []int64) int64 {
			switch rng.Intn(4) {
			case 0:
				return edges[rng.Intn(len(edges))]
			case 1:
				if n > 0 {
					return pts[rng.Intn(int(n))].X
				}
			}
			return coord() + int64(rng.Intn(3)-1)*int64(spread+2)
		}
		for q := 0; q < 64; q++ {
			bb := geom.Rect{
				Lo: geom.Point{X: pick(edgesX), Y: pick(edgesY)},
				Hi: geom.Point{X: pick(edgesX), Y: pick(edgesY)},
			}
			switch rng.Intn(4) {
			case 0:
				bb.Hi = bb.Lo // a point
			case 1:
				bb.Hi.Y = bb.Lo.Y // a horizontal line
			}
			visits := make([]int, n)
			ri.inBox(bb, func(id netlist.InstID, p geom.Point) {
				if p != pts[id] {
					t.Fatalf("inBox reported center %v for %d, indexed %v", p, id, pts[id])
				}
				visits[id]++
			})
			for i, p := range pts {
				want := 0
				if bb.Contains(p) {
					want = 1
				}
				if visits[i] != want {
					t.Fatalf("box %v: center %d at %v visited %d times, want %d (grid %dx%d, cell %dx%d, bounds %v)",
						bb, i, p, visits[i], want, ri.nx, ri.ny, ri.cw, ri.ch, ri.bounds)
				}
			}
		}
	})
}

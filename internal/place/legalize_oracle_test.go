package place_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

// scanLegalize is a reference Tetris legalizer: Legalize's cell order and
// row walk, with every row searched by the full left-to-right scan and no
// budget. It returns the displacement statistics Legalize reports.
func scanLegalize(d *netlist.Design) place.Result {
	var fixed, mov []*netlist.Inst
	d.Insts(func(in *netlist.Inst) {
		switch {
		case in.Area() == 0:
		case !in.Fixed && in.Kind != netlist.KindPort:
			mov = append(mov, in)
		default:
			fixed = append(fixed, in)
		}
	})
	nRows := max(int(d.Core.H()/d.RowH), 1)
	rows := make([][][2]int64, nRows)
	block := func(b geom.Rect) {
		for r := (b.Lo.Y - d.Core.Lo.Y) / d.RowH; r <= (b.Hi.Y-1-d.Core.Lo.Y)/d.RowH; r++ {
			if r < 0 || r >= int64(nRows) {
				continue
			}
			s := rows[r]
			i := sort.Search(len(s), func(k int) bool { return s[k][0] >= b.Lo.X })
			s = append(s, [2]int64{})
			copy(s[i+1:], s[i:])
			s[i] = [2]int64{b.Lo.X, b.Hi.X}
			rows[r] = s
		}
	}
	for _, in := range fixed {
		block(in.Bounds())
	}
	sort.Slice(mov, func(i, j int) bool {
		ri, rj := mov[i].Kind == netlist.KindReg, mov[j].Kind == netlist.KindReg
		if ri != rj {
			return ri
		}
		if mov[i].Pos.X != mov[j].Pos.X {
			return mov[i].Pos.X < mov[j].Pos.X
		}
		return mov[i].Pos.Y < mov[j].Pos.Y
	})
	abs := func(v int64) int64 { return max(v, -v) }
	var res place.Result
	for _, in := range mov {
		target := in.Pos
		homeY := min(max(target.Y, d.Core.Lo.Y), d.Core.Hi.Y-d.RowH)
		home := int((homeY - d.Core.Lo.Y) / d.RowH)
		bestCost := int64(-1)
		var bestPos geom.Point
		for dr := 0; dr < nRows; dr++ {
			for _, r := range []int{home - dr, home + dr} {
				if r < 0 || r >= nRows || (dr == 0 && r != home) {
					continue
				}
				y := d.Core.Lo.Y + int64(r)*d.RowH
				rowCost := abs(y - target.Y)
				if bestCost >= 0 && rowCost > bestCost {
					continue
				}
				x, ok := place.ScanInRow(d.Core.Lo.X, d.Core.Hi.X, d.SiteW, rows[r], target.X, in.Width())
				if ok && (bestCost < 0 || rowCost+abs(x-target.X) < bestCost) {
					bestCost = rowCost + abs(x-target.X)
					bestPos = geom.Point{X: x, Y: y}
				}
				if dr == 0 {
					break
				}
			}
			if bestCost >= 0 && int64(dr+1)*d.RowH > bestCost {
				break
			}
		}
		if bestCost < 0 {
			res.Failed = append(res.Failed, in)
			continue
		}
		if bestCost > 0 {
			res.Moved++
		}
		res.TotalDisplacement += bestCost
		res.MaxDisplacement = max(res.MaxDisplacement, bestCost)
		d.MoveInst(in, bestPos)
		block(in.Bounds())
	}
	return res
}

// scrambled generates the spec's design and pulls every movable cell off
// its legal site toward a few attractors, so the legalizer has long
// displacements and crowded rows to resolve.
func scrambled(t *testing.T, spec bench.Spec) *netlist.Design {
	t.Helper()
	res, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Design
	rng := rand.New(rand.NewSource(spec.Seed))
	core := d.Core
	var attract []geom.Point
	for i := 0; i < 6; i++ {
		attract = append(attract, geom.Point{
			X: core.Lo.X + rng.Int63n(core.W()), Y: core.Lo.Y + rng.Int63n(core.H()),
		})
	}
	d.Insts(func(in *netlist.Inst) {
		if in.Fixed || in.Kind == netlist.KindPort || in.Area() == 0 {
			return
		}
		a := attract[rng.Intn(len(attract))]
		pos := geom.Point{
			X: in.Pos.X + (a.X-in.Pos.X)*int64(rng.Intn(4))/4 + rng.Int63n(2001) - 1000,
			Y: in.Pos.Y + (a.Y-in.Pos.Y)*int64(rng.Intn(4))/4 + rng.Int63n(2001) - 1000,
		}
		pos.X = min(max(pos.X, core.Lo.X-3000), core.Hi.X)
		pos.Y = min(max(pos.Y, core.Lo.Y-3000), core.Hi.Y)
		d.MoveInst(in, pos)
	})
	return d
}

// TestLegalizeMatchesScanLegalizer checks whole-design Legalize, with its
// budgeted block-pruned row search, against the scan reference on
// scrambled generated designs: every cell must land on the same site.
func TestLegalizeMatchesScanLegalizer(t *testing.T) {
	for _, spec := range []bench.Spec{
		bench.D1(bench.ProfileOpts{Scale: 40}),
		bench.D4(bench.ProfileOpts{Scale: 40}),
		bench.D5(bench.ProfileOpts{Scale: 60}),
	} {
		t.Run(spec.Name, func(t *testing.T) {
			got, want := scrambled(t, spec), scrambled(t, spec)
			gotRes, wantRes := place.Legalize(got), scanLegalize(want)
			if g, w := summary(gotRes), summary(&wantRes); g != w {
				t.Fatalf("Legalize %s, scan reference %s", g, w)
			}
			if wantRes.Moved == 0 {
				t.Fatal("scrambled design needed no legalization")
			}
			var wantPos []geom.Point
			want.Insts(func(in *netlist.Inst) { wantPos = append(wantPos, in.Pos) })
			i := 0
			got.Insts(func(in *netlist.Inst) {
				if in.Pos != wantPos[i] {
					t.Fatalf("%s at %v, scan reference %v", in.Name, in.Pos, wantPos[i])
				}
				i++
			})
		})
	}
}

func summary(r *place.Result) string {
	return fmt.Sprintf("moved %d total %d max %d failed %d",
		r.Moved, r.TotalDisplacement, r.MaxDisplacement, len(r.Failed))
}

package route_test

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
)

// TestDeltaAllocsAfterMove bounds what a delta allocates: after a
// one-register move the update dedupes its dirty nets with reused
// generation stamps and buffers and reads the touched records into reused
// buffers, so it allocates nothing.
func TestDeltaAllocsAfterMove(t *testing.T) {
	d := genProfile(t, "D1").Design
	rt := route.NewEngine(d, route.DefaultOptions())
	rt.Update()
	var r *netlist.Inst
	for _, c := range d.Registers() {
		if !c.Fixed {
			r = c
			break
		}
	}
	home := r.Pos
	step := 0
	move := func() {
		step++
		d.MoveInst(r, geom.Point{X: home.X + int64(step%2)*500, Y: home.Y})
		rt.Update()
		if st := rt.Stats(); st.LastKind != "delta" {
			t.Fatalf("update kind %q, want delta", st.LastKind)
		}
	}
	move() // grows the engine's buffers
	allocs := testing.AllocsPerRun(20, move)
	t.Logf("allocations per update after a one-register move: %v", allocs)
	if allocs != 0 {
		t.Fatalf("an update after a one-register move allocates %v times, want 0", allocs)
	}
}

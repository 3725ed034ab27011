package metrics_test

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// TestSyncAllocsAfterMove bounds what a delta sync allocates: after a
// one-register move the sync dedupes its dirty nets with reused
// generation stamps and buffers and reads the touched records into reused
// buffers, so it allocates nothing.
func TestSyncAllocsAfterMove(t *testing.T) {
	d := genProfile(t, "D1").Design
	tr := metrics.New(d)
	tr.Sync()
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
		tr.Sync()
		if st := tr.Stats(); st.LastKind != "delta" {
			t.Fatalf("sync kind %q, want delta", st.LastKind)
		}
	}
	move() // grows the tracker's buffers
	allocs := testing.AllocsPerRun(20, move)
	t.Logf("allocations per sync after a one-register move: %v", allocs)
	if allocs != 0 {
		t.Fatalf("a sync after a one-register move allocates %v times, want 0", allocs)
	}
}

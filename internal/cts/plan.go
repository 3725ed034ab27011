package cts

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// The clustering *plan* separates the pure geometry of tree construction
// from the netlist edits that realize it. planTree recomputes, in memory,
// exactly the levelized cluster structure Build's recursion produces for a
// sink set; Build realizes a plan with fresh buffers and nets, while the
// retained Engine diffs a plan against its live tree and only edits the
// clusters that changed. Both paths therefore agree by construction on
// topology, centroids, member order and — after the shared legalization
// pass — buffer positions.

// planSink is one load in clustering space: a real sink pin at level 0, or
// a lower-level cluster's buffer (child >= 0) above.
type planSink struct {
	pin   *netlist.Pin // real sink (nil for a buffer-level sink)
	child int          // index into the previous plan level, -1 for a real sink
	pos   geom.Point
	cap   float64
	// ord is the deterministic tie-break for exactly co-located sinks:
	// the pin ID for real sinks, the child index above. Both Build and the
	// Engine derive it the same way, so ties never depend on input order.
	ord int64
}

// planCluster is one buffer-to-be: its member loads in connect order and
// the centroid the buffer is dropped at before legalization.
type planCluster struct {
	members  []planSink
	centroid geom.Point
}

// treePlan is the levelized clustering: levels[0] drives real sinks, each
// higher level drives the previous level's buffers, and the last level has
// exactly one cluster — the root buffer.
type treePlan struct {
	levels [][]planCluster
}

// clusters returns the total cluster (= buffer) count.
func (p *treePlan) clusters() int {
	n := 0
	for _, lvl := range p.levels {
		n += len(lvl)
	}
	return n
}

// planTree levelizes the sinks bottom-up: cluster, then re-cluster the
// cluster centroids, until a single root cluster remains. workers bounds
// the parallel fan-out of the recursive bisection (1 = sequential; results
// are identical for any value).
func planTree(sinks []planSink, opts Options, workers int) (*treePlan, error) {
	p := &treePlan{}
	cur := sinks
	for level := 0; ; level++ {
		if level > 64 {
			return nil, fmt.Errorf("cts: runaway recursion")
		}
		cls := clusterSinks(cur, opts, parDepth(workers))
		row := make([]planCluster, len(cls))
		for ci, cl := range cls {
			row[ci] = planCluster{members: cl, centroid: centroidOf(cl)}
		}
		p.levels = append(p.levels, row)
		if len(row) == 1 {
			return p, nil
		}
		next := make([]planSink, len(row))
		for ci := range row {
			next[ci] = planSink{
				child: ci, pos: row[ci].centroid,
				cap: opts.Buffer.InCap, ord: int64(ci),
			}
		}
		cur = next
	}
}

// parDepth converts a worker count to a recursion depth at which the
// bisection may fork: 2^depth concurrent branches.
func parDepth(workers int) int {
	d := 0
	for w := 1; w < workers && d < 8; w *= 2 {
		d++
	}
	return d
}

// parallelClusterMin is the smallest slice worth forking a goroutine for.
const parallelClusterMin = 1024

// clusterSinks recursively bisects the sinks along the longer bounding-box
// axis until each cluster satisfies the fanout and capacitance limits.
// This is the geometry of Build's original clustering; par levels of the
// recursion may run both halves concurrently (the halves are disjoint
// slices of a private copy, and the result is assembled positionally, so
// the output is identical to the sequential run).
func clusterSinks(sinks []planSink, opts Options, par int) [][]planSink {
	totalCap := 0.0
	for _, s := range sinks {
		totalCap += s.cap
	}
	if len(sinks) <= opts.MaxFanout && totalCap <= opts.MaxCap {
		return [][]planSink{sinks}
	}
	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.pos
	}
	bb := geom.BoundingBox(pts)
	horizontal := bb.W() >= bb.H()
	sorted := append([]planSink(nil), sinks...)
	// (X, Y, ord) or (Y, X, ord) is a total order — ord is unique — so any
	// sort yields the same sequence.
	if horizontal {
		slices.SortFunc(sorted, func(a, b planSink) int {
			return cmpPos(a.pos.X, a.pos.Y, a.ord, b.pos.X, b.pos.Y, b.ord)
		})
	} else {
		slices.SortFunc(sorted, func(a, b planSink) int {
			return cmpPos(a.pos.Y, a.pos.X, a.ord, b.pos.Y, b.pos.X, b.ord)
		})
	}
	mid := len(sorted) / 2
	var left, right [][]planSink
	if par > 0 && len(sorted) >= parallelClusterMin {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			left = clusterSinks(sorted[:mid], opts, par-1)
		}()
		right = clusterSinks(sorted[mid:], opts, par-1)
		wg.Wait()
	} else {
		left = clusterSinks(sorted[:mid], opts, 0)
		right = clusterSinks(sorted[mid:], opts, 0)
	}
	return append(left, right...)
}

// cmpPos orders by (major, minor, ord) lexicographically.
func cmpPos(aMaj, aMin, aOrd, bMaj, bMin, bOrd int64) int {
	if c := cmp.Compare(aMaj, bMaj); c != 0 {
		return c
	}
	if c := cmp.Compare(aMin, bMin); c != 0 {
		return c
	}
	return cmp.Compare(aOrd, bOrd)
}

func centroidOf(cl []planSink) geom.Point {
	var sx, sy int64
	for _, s := range cl {
		sx += s.pos.X
		sy += s.pos.Y
	}
	n := int64(len(cl))
	return geom.Point{X: sx / n, Y: sy / n}
}

package compat

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geom"
)

// sweepResult is one node's verdicts over the candidate partners it owns.
type sweepResult struct {
	up      []int32 // higher ordinals confirmed as partners, ascending
	pairs   int     // candidates tested
	rejects [4]int
}

// sweep is the edge phase: it tests every candidate pair of g.Regs once
// and fills g.Adj with ascending rows, plus the pair and reject counters.
// A node's candidate partners are the nodes sharing its funcKey — the only
// ones the functional test can pass — whose move regions fall in the grid
// cells its own region covers over core; each pair is tested by its lower
// ordinal, so the graph equals an all-pairs scan at any worker count.
func (g *Graph) sweep(core geom.Rect, opts Options, sigs []staticSig, workers int) {
	infos := g.Regs
	allowCross := g.Plan == nil || g.Plan.AllowCrossChain
	n := len(infos)
	bucketOf := make([]int32, n)
	keys := make(map[funcKey]int32)
	var members [][]int32
	for i := range sigs {
		b, ok := keys[sigs[i].funcKey]
		if !ok {
			b = int32(len(members))
			keys[sigs[i].funcKey] = b
			members = append(members, nil)
		}
		bucketOf[i] = b
		members[b] = append(members[b], int32(i))
	}
	grids := make([]*geom.Grid, len(members))
	for b, m := range members {
		grids[b] = bucketGrid(core, m, infos)
	}

	results := make([]sweepResult, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := make([]int32, n)
			for k := range stamp {
				stamp[k] = -1
			}
			// Stride over the nodes: lower ordinals own more pairs, and
			// striding balances them.
			for i := w; i < n; i += workers {
				r := &results[i]
				grids[bucketOf[i]].QueryRect(infos[i].Region, func(j int32) {
					if int(j) <= i || stamp[j] == int32(i) {
						return // owned by the lower ordinal, or already tested
					}
					stamp[j] = int32(i)
					r.pairs++
					mask, ok := pairTest(opts, infos[i], infos[j], sigs[i], sigs[j], allowCross)
					if !ok {
						r.rejects[firstFailing(mask)]++
						return
					}
					r.up = append(r.up, j)
				})
				slices.Sort(r.up)
			}
		}(w)
	}
	wg.Wait()

	// Row i holds its lower partners (written while their owners were
	// visited, in ascending order) followed by its own ascending up list.
	deg := make([]int, n)
	total := 0
	for i, r := range results {
		g.pairsTested += r.pairs
		for t, c := range r.rejects {
			g.rejects[t] += c
		}
		deg[i] += len(r.up)
		for _, j := range r.up {
			deg[j]++
		}
		total += 2 * len(r.up)
	}
	backing := make([]int, total)
	g.Adj = make([][]int, n)
	off := 0
	for i := range g.Adj {
		g.Adj[i] = backing[off : off : off+deg[i]]
		off += deg[i]
	}
	for i, r := range results {
		for _, j := range r.up {
			g.Adj[i] = append(g.Adj[i], int(j))
			g.Adj[j] = append(g.Adj[j], i)
		}
	}
}

// bucketGrid indexes the move regions of one bucket's members over the
// core. Cell size tracks the bucket's average region: a finer grid would
// file every slack-generous region into hundreds of cells and make queries
// visit them all, degrading far below a plain scan of the bucket. With
// near-core-sized regions the dims collapse to 1x1, which IS that scan.
func bucketGrid(core geom.Rect, members []int32, infos []*RegInfo) *geom.Grid {
	var sumW, sumH int64
	for _, i := range members {
		sumW += infos[i].Region.W()
		sumH += infos[i].Region.H()
	}
	n := len(members)
	dimCap := min(int(math.Ceil(math.Sqrt(float64(n)))), 64)
	grid := geom.NewGrid(core,
		boundedDim(core.W(), sumW, n, dimCap),
		boundedDim(core.H(), sumH, n, dimCap))
	for _, i := range members {
		grid.InsertRect(i, infos[i].Region)
	}
	return grid
}

// firstFailing returns the index, in evaluation order (functional, scan,
// placement, timing), of the first test a rejected pair did not pass.
func firstFailing(passed testMask) int {
	return bits.TrailingZeros8(uint8(^passed))
}

// boundedDim picks a grid dimension whose cell size is no smaller than the
// average region extent along that axis, capped at dimCap: regions then
// cover O(1) cells each, keeping insert and query linear in n.
func boundedDim(core, sumExtent int64, n, dimCap int) int {
	if n == 0 || core <= 0 {
		return 1
	}
	avg := sumExtent / int64(n)
	if avg <= 0 {
		return dimCap
	}
	return min(max(int(core/avg), 1), dimCap)
}

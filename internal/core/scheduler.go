package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/compat"
)

// Cost-ordered shard scheduler. Component sizes are heavily skewed, so a
// pool that claimed subgraphs in index order could draw a giant dense
// component near the end and run it alone while the rest idle. Shards are
// instead ranked by estimated cost, and every worker claims the next shard
// of that one order through a shared atomic cursor: the expensive shards
// start first, and a worker that finishes early simply takes the next one —
// list scheduling in longest-processing-time order, balanced by
// construction without per-worker queues.
//
// Scheduling only decides *when* a shard runs and on which goroutine; every
// shard still writes its own index-addressed result slot and the ordered
// reduce consumes slots in subgraph index order, so the composition result
// is byte-identical for any worker count and any goroutine schedule.

// estimateShardCost is the scheduler's cost model for one subgraph:
// n·(1+edges), a proxy for component size × candidate count. Candidate
// counts are not known before enumeration, but sub-clique enumeration and
// candidate weighting both grow with local edge density, and the per-node
// factor keeps edgeless shards from all costing the same.
func estimateShardCost(g *compat.Graph, nodes []int) int64 {
	local := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		local[n] = true
	}
	edges := 0
	for _, n := range nodes {
		for _, m := range g.Adj[n] {
			if local[m] {
				edges++
			}
		}
	}
	return int64(len(nodes)) * int64(1+edges/2)
}

// estimateShardCosts evaluates the cost model over a decomposition.
func estimateShardCosts(g *compat.Graph, subgraphs [][]int) []int64 {
	costs := make([]int64, len(subgraphs))
	for i, sg := range subgraphs {
		costs[i] = estimateShardCost(g, sg)
	}
	return costs
}

// runSharded executes process(i) exactly once for every i in [0,len(costs))
// across `workers` goroutines. Shards are ranked by cost (descending, index
// ascending on ties) and each worker claims the next unclaimed shard of
// that order through one atomic cursor. A shard runs start to finish on the
// worker that claimed it.
func runSharded(costs []int64, workers int, process func(int)) {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&cursor, 1) - 1
				if int(i) >= len(order) {
					return
				}
				process(order[i])
			}
		}()
	}
	wg.Wait()
}

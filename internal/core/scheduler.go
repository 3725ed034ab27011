package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/compat"
)

// Work-stealing shard scheduler. The static fan-out this replaces handed
// subgraphs to a pool through one shared channel in index order, which at
// paper scale leaves the tail serialized: component sizes are heavily
// skewed, and whichever worker draws a giant dense component near the end
// runs alone while the rest idle. The scheduler instead ranks shards by
// estimated cost, pre-assigns them to per-worker queues longest-processing-
// time-first (so the expensive shards start first, on separate workers), and
// lets workers that drain their own queue claim the remainder of other
// queues through atomic cursors. Stealing fixes whatever the cost estimate
// got wrong.
//
// Scheduling only decides *when* a shard runs and on which goroutine; every
// shard still writes its own index-addressed result slot and the ordered
// reduce consumes slots in subgraph index order, so the composition result
// is byte-identical for any worker count and any steal pattern. The steal
// counter is schedule-dependent diagnostics and is excluded from every
// byte-identity oracle.

// schedStats reports one scheduler run.
type schedStats struct {
	// shards is the number of work items scheduled.
	shards int
	// steals counts items a worker claimed from another worker's queue.
	steals int
}

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
// ascending on ties) and dealt to per-worker queues greedily onto the least
// loaded queue — the classic LPT makespan heuristic — then each worker
// drains its own queue through an atomic cursor and, when empty, steals the
// unclaimed remainder of other queues the same way. A shard runs start to
// finish on the worker that claimed it.
func runSharded(costs []int64, workers int, process func(int)) schedStats {
	st := schedStats{shards: len(costs)}
	if len(costs) == 0 || workers < 1 {
		return st
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if costs[order[a]] != costs[order[b]] {
			return costs[order[a]] > costs[order[b]]
		}
		return order[a] < order[b]
	})
	queues := make([][]int, workers)
	loads := make([]int64, workers)
	for _, idx := range order {
		w := 0
		for q := 1; q < workers; q++ {
			if loads[q] < loads[w] {
				w = q
			}
		}
		queues[w] = append(queues[w], idx)
		loads[w] += costs[idx]
	}

	cursors := make([]int64, workers)
	var steals int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&cursors[self], 1) - 1
				if int(i) >= len(queues[self]) {
					break
				}
				process(queues[self][i])
			}
			for off := 1; off < workers; off++ {
				victim := (self + off) % workers
				for {
					i := atomic.AddInt64(&cursors[victim], 1) - 1
					if int(i) >= len(queues[victim]) {
						break
					}
					atomic.AddInt64(&steals, 1)
					process(queues[victim][i])
				}
			}
		}(w)
	}
	wg.Wait()
	st.steals = int(steals)
	return st
}

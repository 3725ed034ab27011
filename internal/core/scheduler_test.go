package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestRunShardedClaimsEachShardOnce is the scheduler's safety property:
// every shard is processed exactly once, for any shard count, cost skew and
// worker count, steals included.
func TestRunShardedClaimsEachShardOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		workers := 1 + rng.Intn(8)
		costs := make([]int64, n)
		for i := range costs {
			// Heavy-tailed costs: most shards cheap, a few huge — the skew
			// the scheduler exists for.
			costs[i] = int64(1 + rng.Intn(10))
			if rng.Intn(10) == 0 {
				costs[i] *= 1000
			}
		}
		counts := make([]int64, n)
		st := runSharded(costs, workers, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		if st.shards != n {
			t.Fatalf("trial %d: shards = %d want %d", trial, st.shards, n)
		}
		if st.steals < 0 || st.steals > n {
			t.Fatalf("trial %d: steals = %d out of [0,%d]", trial, st.steals, n)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d (n=%d workers=%d): shard %d processed %d times",
					trial, n, workers, i, c)
			}
		}
	}
}

// TestRunShardedStealsOnImbalance forces a steal: the first shard claimed is
// held hostage until every other shard completes, so the other worker must
// drain the hostage-holder's queue through the steal path. With 20
// equal-cost shards dealt 10/10 across 2 workers, at least 9 of the
// hostage-holder's shards are claimed by the other worker.
func TestRunShardedStealsOnImbalance(t *testing.T) {
	const n = 20
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1
	}
	var first int64 = -1
	var processed int64
	release := make(chan struct{})
	st := runSharded(costs, 2, func(i int) {
		if atomic.CompareAndSwapInt64(&first, -1, int64(i)) {
			<-release
			return
		}
		if atomic.AddInt64(&processed, 1) == n-1 {
			close(release)
		}
	})
	if st.steals < 9 {
		t.Fatalf("steals = %d, want >= 9 (one worker blocked, the other must steal its queue)", st.steals)
	}
	if st.shards != n {
		t.Fatalf("shards = %d want %d", st.shards, n)
	}
}

// TestRunShardedMoreWorkersThanShards checks the clamp-fix regime: a pool
// larger than the shard count must still process everything exactly once
// and terminate (the surplus workers find empty queues and exit through the
// steal scan).
func TestRunShardedMoreWorkersThanShards(t *testing.T) {
	costs := []int64{7, 3, 11}
	counts := make([]int64, len(costs))
	st := runSharded(costs, 16, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	})
	if st.shards != len(costs) {
		t.Fatalf("shards = %d want %d", st.shards, len(costs))
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("shard %d processed %d times", i, c)
		}
	}
}

// TestEstimateShardCost pins the cost model's shape: cost grows with node
// count and with local edge density, and ignores edges leaving the shard.
func TestEstimateShardCost(t *testing.T) {
	d, g, _ := genComposeInput(t, randomSpec(9))
	_ = d
	// A subgraph of disconnected nodes costs exactly n.
	single := estimateShardCost(g, []int{0})
	if single != 1 {
		t.Fatalf("singleton cost = %d want 1", single)
	}
	// Adding a node never lowers the cost.
	var grow []int
	prev := int64(0)
	for n := 0; n < len(g.Regs) && n < 8; n++ {
		grow = append(grow, n)
		c := estimateShardCost(g, grow)
		if c < prev {
			t.Fatalf("cost shrank from %d to %d when adding node %d", prev, c, n)
		}
		prev = c
	}
}

// TestComposeSchedulesEveryShard pins that Compose runs its subgraphs
// through the shard scheduler: at two workers every subgraph is scheduled
// exactly once and every result slot is live until the ordered reduce.
func TestComposeSchedulesEveryShard(t *testing.T) {
	d, g, plan := genComposeInput(t, randomSpec(11))
	opts := DefaultOptions()
	opts.Workers = 2
	res, err := Compose(d, g, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs == 0 {
		t.Fatal("spec decomposed into no subgraphs")
	}
	if res.SchedShards != res.Subgraphs || res.PeakLiveShards != res.Subgraphs {
		t.Fatalf("scheduled %d shards, peak live %d, for %d subgraphs",
			res.SchedShards, res.PeakLiveShards, res.Subgraphs)
	}
}

package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestRunShardedClaimsEachShardOnce is the scheduler's safety property:
// every shard is processed exactly once, for any shard count, cost skew and
// worker count.
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
		runSharded(costs, workers, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d (n=%d workers=%d): shard %d processed %d times",
					trial, n, workers, i, c)
			}
		}
	}
}

// TestRunShardedClaimsInCostOrder pins the single cost-ordered cursor: with
// two workers, the one that claims the most expensive shard blocks on it
// until every other shard is done, so the other worker must run all the
// rest, and in descending cost order with ties broken by ascending index.
func TestRunShardedClaimsInCostOrder(t *testing.T) {
	costs := []int64{3, 9, 1, 5, 9, 3, 7, 1, 5, 2, 20, 7}
	const top = 10 // the unique most expensive shard
	want := []int{1, 4, 6, 11, 3, 8, 0, 5, 9, 2, 7}
	var got []int
	release := make(chan struct{})
	runSharded(costs, 2, func(i int) {
		if i == top {
			<-release
			return
		}
		// Only the unblocked worker reaches here while top is held, so got
		// needs no lock.
		got = append(got, i)
		if len(got) == len(costs)-1 {
			close(release)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("ran %d shards beside the blocked one, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("claim order %v, want %v", got, want)
		}
	}
}

// TestRunShardedMoreWorkersThanShards checks the clamp-fix regime: a pool
// larger than the shard count must still process everything exactly once
// and terminate (the surplus workers find the cursor exhausted and exit).
func TestRunShardedMoreWorkersThanShards(t *testing.T) {
	costs := []int64{7, 3, 11}
	counts := make([]int64, len(costs))
	runSharded(costs, 16, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	})
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

// TestComposeSchedulesEveryShard pins that at two workers every shard's
// result slot is live until the ordered reduce.
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
	if res.PeakLiveShards != res.Subgraphs {
		t.Fatalf("peak live %d shards for %d subgraphs", res.PeakLiveShards, res.Subgraphs)
	}
}

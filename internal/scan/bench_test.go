package scan

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// BenchmarkApplyMerge measures the scan bookkeeping of one composition
// pass: 5000 scanned registers over 40 chains in 4 partitions (every other
// chain an ordered section), then 500 merges of contiguous runs of up to 8
// registers. Plan construction is excluded from the timing.
func BenchmarkApplyMerge(b *testing.B) {
	const chains, perChain, merges = 40, 125, 500
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng.Seed(3)
		p := NewPlan()
		next := netlist.InstID(0)
		for c := 0; c < chains; c++ {
			regs := make([]netlist.InstID, perChain)
			for k := range regs {
				regs[k] = next
				next++
			}
			if _, err := p.AddChain(c%4, c%2 == 1, regs); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for m := 0; m < merges; m++ {
			c := p.Chains()[rng.Intn(chains)]
			start := rng.Intn(len(c.Regs))
			group := c.Regs[start:min(start+1+rng.Intn(8), len(c.Regs))]
			if err := p.ApplyMerge(append([]netlist.InstID(nil), group...), next); err != nil {
				b.Fatal(err)
			}
			next++
		}
	}
}

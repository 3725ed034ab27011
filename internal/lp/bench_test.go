package lp

import (
	"math/rand"
	"testing"
)

// BenchmarkSimplexSetPartitioning measures the LP relaxation of a
// composition-sized set-partitioning instance: 30 rows (registers),
// 2000 columns (candidates).
func BenchmarkSimplexSetPartitioning(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols = 30, 2000
	type col struct {
		members []int
		w       float64
	}
	columns := make([]col, cols)
	for c := range columns {
		k := 1 + rng.Intn(4)
		seen := map[int]bool{}
		var ms []int
		for len(ms) < k {
			m := rng.Intn(rows)
			if !seen[m] {
				seen[m] = true
				ms = append(ms, m)
			}
		}
		columns[c] = col{ms, 0.1 + rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(Minimize)
		for _, c := range columns {
			p.AddVar(0, 1, c.w, "")
		}
		for r := 0; r < rows; r++ {
			var terms []Term
			for ci, c := range columns {
				for _, m := range c.members {
					if m == r {
						terms = append(terms, Term{Var: ci, Coef: 1})
					}
				}
			}
			p.AddConstraint(terms, EQ, 1)
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}

// BenchmarkSimplexPlacement measures the §4.2 MBR-placement LP of a
// 16-pin (8-bit) MBR: 66 variables, 128 rows, built and solved per
// iteration as the placer does.
func BenchmarkSimplexPlacement(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < b.N; i++ {
		rng.Seed(11)
		s, err := placementLP(rng, 16).Solve()
		if err != nil || s.Status != Optimal {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}

// BenchmarkSimplexDense measures a dense medium LP.
func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const nv, nc = 60, 40
	cost := make([]float64, nv)
	for i := range cost {
		cost[i] = rng.Float64()*4 - 2
	}
	rowsCoef := make([][]float64, nc)
	rhs := make([]float64, nc)
	for r := range rowsCoef {
		rowsCoef[r] = make([]float64, nv)
		for j := range rowsCoef[r] {
			rowsCoef[r][j] = rng.Float64() * 3
		}
		rhs[r] = 10 + rng.Float64()*40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(Minimize)
		for _, c := range cost {
			p.AddVar(0, 20, c, "")
		}
		for r := 0; r < nc; r++ {
			terms := make([]Term, nv)
			for j := 0; j < nv; j++ {
				terms[j] = Term{Var: j, Coef: rowsCoef[r][j]}
			}
			p.AddConstraint(terms, LE, rhs[r])
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}

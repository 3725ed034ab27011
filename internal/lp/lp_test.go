package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  → x=2, y=6, obj=36.
	p := New(Maximize)
	x := p.AddVar(0, Inf, 3, "x")
	y := p.AddVar(0, Inf, 5, "y")
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 2}}, LE, 12)
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	s := solveOK(t, p)
	if !approx(s.Objective, 36) || !approx(s.X[x], 2) || !approx(s.X[y], 6) {
		t.Fatalf("got obj=%g x=%g y=%g", s.Objective, s.X[x], s.X[y])
	}
}

func TestSimpleMinWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3 → x=7, y=3, obj=23.
	p := New(Minimize)
	x := p.AddVar(2, Inf, 2, "x")
	y := p.AddVar(3, Inf, 3, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 10)
	s := solveOK(t, p)
	if !approx(s.Objective, 23) || !approx(s.X[x], 7) || !approx(s.X[y], 3) {
		t.Fatalf("got obj=%g x=%g y=%g", s.Objective, s.X[x], s.X[y])
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 5, x ≤ 3 → x=3, y=2, obj=7.
	p := New(Minimize)
	x := p.AddVar(0, 3, 1, "x")
	y := p.AddVar(0, Inf, 2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5)
	s := solveOK(t, p)
	if !approx(s.Objective, 7) || !approx(s.X[x], 3) || !approx(s.X[y], 2) {
		t.Fatalf("got obj=%g x=%g y=%g", s.Objective, s.X[x], s.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(0, 1, 1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleConflictingRows(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(0, Inf, 0, "x")
	y := p.AddVar(0, Inf, 0, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 3)
	s, _ := p.Solve()
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(0, Inf, 1, "x")
	y := p.AddVar(0, Inf, 0, "y")
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 1)
	s, _ := p.Solve()
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| problem: min z s.t. z ≥ x-3, z ≥ 3-x, x free with x = -5
	// fixed by constraint → z = 8.
	p := New(Minimize)
	x := p.AddVar(math.Inf(-1), Inf, 0, "x")
	z := p.AddVar(math.Inf(-1), Inf, 1, "z")
	p.AddConstraint([]Term{{x, 1}}, EQ, -5)
	p.AddConstraint([]Term{{z, 1}, {x, -1}}, GE, -3) // z ≥ x - 3
	p.AddConstraint([]Term{{z, 1}, {x, 1}}, GE, 3)   // z ≥ 3 - x
	s := solveOK(t, p)
	if !approx(s.X[x], -5) || !approx(s.Objective, 8) {
		t.Fatalf("got x=%g obj=%g", s.X[x], s.Objective)
	}
}

func TestUpperBoundedOnlyVariable(t *testing.T) {
	// max x with x ≤ 7, no lower bound, plus x ≥ -100 via row.
	p := New(Maximize)
	x := p.AddVar(math.Inf(-1), 7, 1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, -100)
	s := solveOK(t, p)
	if !approx(s.X[x], 7) {
		t.Fatalf("x = %g want 7", s.X[x])
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x ≤ -4 (i.e. x ≥ 4) → x = 4.
	p := New(Minimize)
	x := p.AddVar(0, Inf, 1, "x")
	p.AddConstraint([]Term{{x, -1}}, LE, -4)
	s := solveOK(t, p)
	if !approx(s.X[x], 4) {
		t.Fatalf("x = %g want 4", s.X[x])
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	// min x s.t. 0.5x + 0.5x ≥ 6 → x = 6.
	p := New(Minimize)
	x := p.AddVar(0, Inf, 1, "x")
	p.AddConstraint([]Term{{x, 0.5}, {x, 0.5}}, GE, 6)
	s := solveOK(t, p)
	if !approx(s.X[x], 6) {
		t.Fatalf("x = %g want 6", s.X[x])
	}
}

// Merged terms keep the order in which their variables first appear, so
// build sums a row's shifted right-hand side in a fixed order; terms that
// cancel are dropped.
func TestAddConstraintMergeOrder(t *testing.T) {
	p := New(Minimize)
	for i := 0; i < 4; i++ {
		p.AddVar(0, Inf, 1, "")
	}
	p.AddConstraint([]Term{{3, 1}, {0, 2}, {3, -1}, {2, 0.5}, {0, 1}, {2, 0.25}}, GE, 1)
	p.AddConstraint([]Term{{1, 1}, {3, 2}, {1, 1}}, LE, 5)
	want := [][]Term{{{0, 3}, {2, 0.75}}, {{1, 2}, {3, 2}}}
	for ri, w := range want {
		got := p.rows[ri].terms
		if len(got) != len(w) {
			t.Fatalf("row %d: terms %v, want %v", ri, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("row %d: terms %v, want %v", ri, got, w)
			}
		}
	}
}

func TestDegenerateCyclingGuard(t *testing.T) {
	// Classic Beale cycling example; Bland fallback must terminate.
	p := New(Minimize)
	x1 := p.AddVar(0, Inf, -0.75, "x1")
	x2 := p.AddVar(0, Inf, 150, "x2")
	x3 := p.AddVar(0, Inf, -0.02, "x3")
	x4 := p.AddVar(0, Inf, 6, "x4")
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	s := solveOK(t, p)
	if !approx(s.Objective, -0.05) {
		t.Fatalf("objective = %g, want -0.05", s.Objective)
	}
}

func TestSetBoundsResolve(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(0, 10, 1, "x")
	y := p.AddVar(0, 10, 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 12)
	s := solveOK(t, p)
	if !approx(s.Objective, 12) {
		t.Fatalf("obj = %g want 12", s.Objective)
	}
	// Branch: fix x = 0.
	p.SetBounds(x, 0, 0)
	s = solveOK(t, p)
	if !approx(s.Objective, 10) || !approx(s.X[x], 0) {
		t.Fatalf("after branch obj=%g x=%g", s.Objective, s.X[x])
	}
	// Un-branch.
	p.SetBounds(x, 0, 10)
	s = solveOK(t, p)
	if !approx(s.Objective, 12) {
		t.Fatalf("after unbranch obj = %g want 12", s.Objective)
	}
}

func TestSetPartitioningRelaxation(t *testing.T) {
	// LP relaxation of a tiny exact cover: registers {1,2,3}, candidates
	// {1}, {2}, {3}, {1,2}, {2,3}, {1,2,3} with weights 1,1,1,0.5,0.5,1/3.
	// Optimum of the relaxation (and the IP) picks {1,2,3} with cost 1/3.
	p := New(Minimize)
	w := []float64{1, 1, 1, 0.5, 0.5, 1.0 / 3}
	members := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}}
	vars := make([]int, len(w))
	for i := range w {
		vars[i] = p.AddVar(0, 1, w[i], "")
	}
	for reg := 0; reg < 3; reg++ {
		var terms []Term
		for i, ms := range members {
			for _, m := range ms {
				if m == reg {
					terms = append(terms, Term{vars[i], 1})
				}
			}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	s := solveOK(t, p)
	if !approx(s.Objective, 1.0/3) {
		t.Fatalf("obj = %g want 1/3", s.Objective)
	}
	if !approx(s.X[vars[5]], 1) {
		t.Fatalf("x[{1,2,3}] = %g want 1", s.X[vars[5]])
	}
}

// Property test: for random feasible bounded problems, the simplex solution
// satisfies every constraint and stays within variable bounds.
func TestRandomProblemsSolutionFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(6)
		nc := 1 + rng.Intn(6)
		p := New(Minimize)
		vars := make([]int, nv)
		for i := range vars {
			vars[i] = p.AddVar(0, float64(1+rng.Intn(20)), rng.Float64()*10-5, "")
		}
		// Feasible by construction: x = 0 satisfies A x ≤ b with b ≥ 0.
		type row struct {
			terms []Term
			rhs   float64
		}
		rows := make([]row, nc)
		for i := range rows {
			var terms []Term
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{v, rng.Float64() * 4})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{vars[0], 1})
			}
			rhs := rng.Float64() * 30
			rows[i] = row{terms, rhs}
			p.AddConstraint(terms, LE, rhs)
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		for i, v := range vars {
			lo, hi := p.Bounds(v)
			if s.X[i] < lo-1e-6 || s.X[i] > hi+1e-6 {
				return false
			}
		}
		for _, r := range rows {
			lhs := 0.0
			for _, term := range r.terms {
				lhs += term.Coef * s.X[term.Var]
			}
			if lhs > r.rhs+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property test: minimization objective is never above the value at any
// random feasible point we can construct (x = 0 here, since all rows are
// A x ≤ b with b ≥ 0 and costs apply at zero).
func TestRandomProblemsOptimalityVsOrigin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(5)
		p := New(Minimize)
		for i := 0; i < nv; i++ {
			p.AddVar(0, 10, rng.Float64()*8-4, "")
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			var terms []Term
			for v := 0; v < nv; v++ {
				terms = append(terms, Term{v, rng.Float64() * 3})
			}
			p.AddConstraint(terms, LE, 5+rng.Float64()*20)
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		return s.Objective <= 1e-6 // origin has objective 0 and is feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNoVariables(t *testing.T) {
	p := New(Minimize)
	if _, err := p.Solve(); err != ErrNoProblem {
		t.Fatalf("err = %v want ErrNoProblem", err)
	}
}

func TestFixedVariableViaBounds(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(5, 5, 1, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 8)
	s := solveOK(t, p)
	if !approx(s.X[x], 5) || !approx(s.X[y], 3) {
		t.Fatalf("x=%g y=%g", s.X[x], s.X[y])
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Two identical equality rows must not break phase-1 artificial removal.
	p := New(Minimize)
	x := p.AddVar(0, Inf, 1, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	s := solveOK(t, p)
	if !approx(s.Objective, 4) {
		t.Fatalf("obj = %g want 4", s.Objective)
	}
}

func TestMaximizeWithEquality(t *testing.T) {
	// max 2x + y s.t. x + y = 10, x ≤ 6 → x=6, y=4, obj=16.
	p := New(Maximize)
	x := p.AddVar(0, 6, 2, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	s := solveOK(t, p)
	if !approx(s.Objective, 16) {
		t.Fatalf("obj = %g want 16", s.Objective)
	}
}

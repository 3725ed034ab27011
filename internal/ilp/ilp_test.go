package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binary → b=1,c=1 obj 20.
	p := New(lp.Maximize)
	a := p.AddBinary(10, "a")
	b := p.AddBinary(13, "b")
	c := p.AddBinary(7, "c")
	p.AddConstraint([]lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 6)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 20) {
		t.Fatalf("status=%v obj=%g want optimal/20", s.Status, s.Objective)
	}
	if s.X[a] != 0 || s.X[b] != 1 || s.X[c] != 1 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestIntegerVsLPRelaxationGap(t *testing.T) {
	// max x + y s.t. 2x + 2y ≤ 3, binary. LP gives 1.5; IP must give 1.
	p := New(lp.Maximize)
	x := p.AddBinary(1, "x")
	y := p.AddBinary(1, "y")
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.LE, 3)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 1) {
		t.Fatalf("obj = %g want 1", s.Objective)
	}
}

func TestGeneralInteger(t *testing.T) {
	// max 3x + 4y, x,y ∈ Z, 0 ≤ x,y ≤ 10, x + 2y ≤ 9, 3x - y ≤ 12
	// Optimum: x=4(?), search: try x=4,y=2: 3*4+4*2=20, feasible (4+4=8≤9, 12-2=10≤12).
	// x=5 infeasible (3*5-y≤12 → y≥3, x+2y=11>9). x=3,y=3: 21, feasible (9≤9, 6≤12).
	p := New(lp.Maximize)
	x := p.AddVar(0, 10, 3, true, "x")
	y := p.AddVar(0, 10, 4, true, "y")
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 9)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 3}, {Var: y, Coef: -1}}, lp.LE, 12)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 21) || !approx(s.X[x], 3) || !approx(s.X[y], 3) {
		t.Fatalf("obj=%g x=%v", s.Objective, s.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 2i + c s.t. i + c ≥ 3.5, i integer ≥ 0, 0 ≤ c ≤ 1.
	// c=1 forced to its max, i ≥ 2.5 → i=3? i+c≥3.5 with c=1 → i≥2.5 → i=3, obj 7.
	// But i=3,c=0.5 → obj 6.5. Better: i=3, c=0.5 obj 6.5; i=4,c=0: 8. i=3 best with c=0.5.
	p := New(lp.Minimize)
	i := p.AddVar(0, 100, 2, true, "i")
	c := p.AddVar(0, 1, 1, false, "c")
	p.AddConstraint([]lp.Term{{Var: i, Coef: 1}, {Var: c, Coef: 1}}, lp.GE, 3.5)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 6.5) || !approx(s.X[i], 3) || !approx(s.X[c], 0.5) {
		t.Fatalf("obj=%g x=%v", s.Objective, s.X)
	}
}

func TestInfeasibleIP(t *testing.T) {
	// x binary, 2x = 1 → infeasible in integers (LP feasible at 0.5).
	p := New(lp.Minimize)
	x := p.AddBinary(1, "x")
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.EQ, 1)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v want infeasible", s.Status)
	}
}

func TestSetPartitioningIP(t *testing.T) {
	// Paper-style weighted exact cover through the raw ILP interface.
	// Elements {0,1,2}; candidates and weights as in lp tests.
	p := New(lp.Minimize)
	w := []float64{1, 1, 1, 0.5, 0.5, 1.0 / 3}
	members := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}}
	vars := make([]int, len(w))
	for i := range w {
		vars[i] = p.AddBinary(w[i], "")
	}
	for e := 0; e < 3; e++ {
		var terms []lp.Term
		for i, ms := range members {
			for _, m := range ms {
				if m == e {
					terms = append(terms, lp.Term{Var: vars[i], Coef: 1})
				}
			}
		}
		p.AddConstraint(terms, lp.EQ, 1)
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 1.0/3) || s.X[vars[5]] != 1 {
		t.Fatalf("obj=%g x=%v", s.Objective, s.X)
	}
}

func TestSolveCoverBasic(t *testing.T) {
	inst := CoverInstance{
		NumElems: 3,
		Sets: []CoverSet{
			{Members: []int{0}, Weight: 1},
			{Members: []int{1}, Weight: 1},
			{Members: []int{2}, Weight: 1},
			{Members: []int{0, 1}, Weight: 0.5},
			{Members: []int{1, 2}, Weight: 0.5},
			{Members: []int{0, 1, 2}, Weight: 1.0 / 3},
		},
	}
	res, err := SolveCover(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 1.0/3) || len(res.Chosen) != 1 || res.Chosen[0] != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSolveCoverForcedColumn(t *testing.T) {
	// Element 2 only coverable by set {1,2}; forcing it eliminates {0,1},
	// leaving {0} for element 0.
	inst := CoverInstance{
		NumElems: 3,
		Sets: []CoverSet{
			{Members: []int{0}, Weight: 5},
			{Members: []int{0, 1}, Weight: 1},
			{Members: []int{1, 2}, Weight: 2},
		},
	}
	res, err := SolveCover(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 7) {
		t.Fatalf("obj = %g want 7", res.Objective)
	}
	want := map[int]bool{0: true, 2: true}
	for _, c := range res.Chosen {
		if !want[c] {
			t.Fatalf("chosen = %v", res.Chosen)
		}
	}
}

func TestSolveCoverDominance(t *testing.T) {
	// Duplicate member sets: only the cheaper may be chosen.
	inst := CoverInstance{
		NumElems: 2,
		Sets: []CoverSet{
			{Members: []int{0, 1}, Weight: 3},
			{Members: []int{0, 1}, Weight: 1},
		},
	}
	res, err := SolveCover(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 1) || len(res.Chosen) != 1 || res.Chosen[0] != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Reduced == 0 {
		t.Fatal("expected dominance reduction")
	}
}

func TestSolveCoverInfeasible(t *testing.T) {
	inst := CoverInstance{
		NumElems: 2,
		Sets:     []CoverSet{{Members: []int{0}, Weight: 1}},
	}
	if _, err := SolveCover(inst); err != ErrCoverInfeasible {
		t.Fatalf("err = %v want ErrCoverInfeasible", err)
	}
}

func TestSolveCoverOverlapForcesInfeasible(t *testing.T) {
	// Element 0 in two sets, but both clash with forced coverage of 1 and 2.
	inst := CoverInstance{
		NumElems: 3,
		Sets: []CoverSet{
			{Members: []int{0, 1}, Weight: 1},
			{Members: []int{0, 2}, Weight: 1},
			{Members: []int{1, 2}, Weight: 1},
		},
	}
	// Any two sets double-cover one element: infeasible.
	if _, err := SolveCover(inst); err != ErrCoverInfeasible {
		t.Fatalf("err = %v want ErrCoverInfeasible", err)
	}
}

func TestSolveCoverValidation(t *testing.T) {
	cases := []CoverInstance{
		{NumElems: 1, Sets: []CoverSet{{Members: nil, Weight: 1}}},
		{NumElems: 1, Sets: []CoverSet{{Members: []int{1}, Weight: 1}}},
		{NumElems: 1, Sets: []CoverSet{{Members: []int{0, 0}, Weight: 1}}},
		{NumElems: 1, Sets: []CoverSet{{Members: []int{0}, Weight: math.Inf(1)}}},
		{NumElems: 1, Sets: []CoverSet{{Members: []int{0}, Weight: -1}}},
	}
	for i, inst := range cases {
		if _, err := SolveCover(inst); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSolveCoverEmpty(t *testing.T) {
	res, err := SolveCover(CoverInstance{})
	if err != nil || len(res.Chosen) != 0 || res.Objective != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// coverBrute solves a small instance by exhaustive enumeration.
func coverBrute(inst CoverInstance) (float64, bool) {
	n := len(inst.Sets)
	best := math.Inf(1)
	found := false
	cnt := make([]int, inst.NumElems)
	for mask := 0; mask < 1<<n; mask++ {
		clear(cnt)
		w := 0.0
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			w += inst.Sets[i].Weight
			for _, m := range inst.Sets[i].Members {
				cnt[m]++
				if cnt[m] > 1 {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		for _, c := range cnt {
			if c != 1 {
				ok = false
				break
			}
		}
		if ok {
			found = true
			if w < best {
				best = w
			}
		}
	}
	return best, found
}

// coverMatchesBrute solves inst and checks the result against coverBrute:
// the same infeasibility verdict, an exact cover, and the optimal objective.
func coverMatchesBrute(inst CoverInstance) error {
	wantObj, feasible := coverBrute(inst)
	res, err := SolveCover(inst)
	if !feasible {
		if err != ErrCoverInfeasible {
			return fmt.Errorf("infeasible instance: got %v, want ErrCoverInfeasible", err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	cnt := make([]int, inst.NumElems)
	for _, ci := range res.Chosen {
		for _, m := range inst.Sets[ci].Members {
			cnt[m]++
		}
	}
	for e, c := range cnt {
		if c != 1 {
			return fmt.Errorf("element %d covered %d times by %v", e, c, res.Chosen)
		}
	}
	if math.Abs(res.Objective-wantObj) >= 1e-6 {
		return fmt.Errorf("objective %g, brute force %g", res.Objective, wantObj)
	}
	return nil
}

// randomCover builds a random feasible-or-not cover instance. Singleton
// columns for every element are optionally guaranteed (the shape the
// composition ILP always has).
func randomCover(rng *rand.Rand, withSingletons bool) CoverInstance {
	ne := 1 + rng.Intn(8)
	inst := CoverInstance{NumElems: ne}
	if withSingletons {
		for e := 0; e < ne; e++ {
			inst.Sets = append(inst.Sets, CoverSet{Members: []int{e}, Weight: 0.5 + rng.Float64()*2})
		}
	}
	ns := rng.Intn(12)
	for i := 0; i < ns; i++ {
		var ms []int
		for e := 0; e < ne; e++ {
			if rng.Intn(3) == 0 {
				ms = append(ms, e)
			}
		}
		if len(ms) == 0 {
			ms = []int{rng.Intn(ne)}
		}
		inst.Sets = append(inst.Sets, CoverSet{Members: ms, Weight: 0.1 + rng.Float64()*5})
	}
	return inst
}

// Property: SolveCover matches brute force on random small instances, and
// the chosen sets always form an exact cover.
func TestSolveCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 1 + rng.Intn(6)
		ns := 1 + rng.Intn(10)
		inst := CoverInstance{NumElems: ne}
		for i := 0; i < ns; i++ {
			var ms []int
			for e := 0; e < ne; e++ {
				if rng.Intn(3) == 0 {
					ms = append(ms, e)
				}
			}
			if len(ms) == 0 {
				ms = []int{rng.Intn(ne)}
			}
			inst.Sets = append(inst.Sets, CoverSet{Members: ms, Weight: 0.1 + rng.Float64()*5})
		}
		return coverMatchesBrute(inst) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSolveCoverMatchesBruteForce fuzzes the TestSolveCoverMatchesBruteForce
// property over randomCover instances, with and without the singleton
// columns the composition ILP always carries.
func FuzzSolveCoverMatchesBruteForce(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if err := coverMatchesBrute(randomCover(rng, rng.Intn(2) == 0)); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: branch & bound matches brute force on random binary knapsacks.
func TestBinaryKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		vals := make([]float64, n)
		wts := make([]float64, n)
		for i := range vals {
			vals[i] = 1 + rng.Float64()*9
			wts[i] = 1 + rng.Float64()*9
		}
		capacity := rng.Float64() * 25

		p := New(lp.Maximize)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			v := p.AddBinary(vals[i], "")
			terms[i] = lp.Term{Var: v, Coef: wts[i]}
		}
		p.AddConstraint(terms, lp.LE, capacity)
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += wts[i]
					v += vals[i]
				}
			}
			if w <= capacity+1e-9 && v > best {
				best = v
			}
		}
		return math.Abs(s.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeLimit(t *testing.T) {
	p := New(lp.Maximize)
	// A knapsack big enough to need >1 node.
	var terms []lp.Term
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 14; i++ {
		v := p.AddBinary(1+rng.Float64()*9, "")
		terms = append(terms, lp.Term{Var: v, Coef: 1 + rng.Float64()*9})
	}
	p.AddConstraint(terms, lp.LE, 30)
	p.SetNodeLimit(1)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != NodeLimit && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}

func TestSetIncumbentPrunes(t *testing.T) {
	// Seeding the optimum as incumbent must keep the result optimal.
	p := New(lp.Maximize)
	a := p.AddBinary(10, "a")
	b := p.AddBinary(13, "b")
	c := p.AddBinary(7, "c")
	p.AddConstraint([]lp.Term{{Var: a, Coef: 3}, {Var: b, Coef: 4}, {Var: c, Coef: 2}}, lp.LE, 6)
	p.SetIncumbent([]float64{0, 1, 1}, 20)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 20) {
		t.Fatalf("obj = %g want 20", s.Objective)
	}
}

func TestIncumbentSurvivesNodeLimit(t *testing.T) {
	p := New(lp.Minimize)
	var terms []lp.Term
	for i := 0; i < 12; i++ {
		v := p.AddBinary(1, "")
		terms = append(terms, lp.Term{Var: v, Coef: 1})
	}
	p.AddConstraint(terms, lp.GE, 7.5) // needs 8 ones
	feas := make([]float64, 12)
	for i := 0; i < 9; i++ {
		feas[i] = 1 // suboptimal but feasible (9 ones)
	}
	p.SetIncumbent(feas, 9)
	p.SetNodeLimit(1)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.X == nil {
		t.Fatal("incumbent must survive the node limit")
	}
	if s.Objective > 9+1e-9 {
		t.Fatalf("objective %g worse than incumbent", s.Objective)
	}
}

func TestIntegralBoundTightening(t *testing.T) {
	// Unit-cost partitioning with a fractional LP optimum: the integral
	// bound must still prove the true optimum.
	// Elements 0,1,2 covered by the three pairs {0,1},{1,2},{0,2}: LP says
	// 1.5 sets; IP needs... every pair double-covers on any 2-subset, so
	// only singletons+pair combos work: {0,1}+{2} = 2 sets.
	inst := CoverInstance{
		NumElems: 3,
		Sets: []CoverSet{
			{Members: []int{0}, Weight: 1},
			{Members: []int{1}, Weight: 1},
			{Members: []int{2}, Weight: 1},
			{Members: []int{0, 1}, Weight: 1},
			{Members: []int{1, 2}, Weight: 1},
			{Members: []int{0, 2}, Weight: 1},
		},
	}
	res, err := SolveCover(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 2) {
		t.Fatalf("objective = %g want 2", res.Objective)
	}
	if !res.Exact {
		t.Fatal("small instance must be solved exactly")
	}
}

func TestGreedyCoverStrategies(t *testing.T) {
	// An instance where cheapest-per-member greedy is led astray but
	// largest-first lands the optimum: the warm start must be feasible
	// regardless.
	inst := CoverInstance{
		NumElems: 4,
		Sets: []CoverSet{
			{Members: []int{0}, Weight: 1},
			{Members: []int{1}, Weight: 1},
			{Members: []int{2}, Weight: 1},
			{Members: []int{3}, Weight: 1},
			{Members: []int{0, 1}, Weight: 0.1}, // juicy ratio, splits the quad
			{Members: []int{0, 1, 2, 3}, Weight: 0.5},
		},
	}
	res, err := SolveCover(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Objective, 0.5) {
		t.Fatalf("objective = %g want 0.5", res.Objective)
	}
}

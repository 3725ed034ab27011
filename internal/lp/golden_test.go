package lp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/solve.golden")

// TestSolveGolden pins the solver's exact floating-point behaviour: for
// seeded random LPs of the three shapes the repo solves (§4.2 placement,
// set-partitioning relaxations under branching, dense rows) it hashes the
// status and the bit patterns of the objective and every variable value.
// Any change to the pivot arithmetic, the pricing or the ratio test that
// moves a single bit shows up here.
//
//	go test ./internal/lp -run TestSolveGolden -update
func TestSolveGolden(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(1); seed <= 40; seed++ {
		p := placementLP(rand.New(rand.NewSource(seed)), 0)
		fmt.Fprintf(&buf, "placement %2d %s\n", seed, solutionHash(p.Solve()))
	}
	for seed := int64(1); seed <= 20; seed++ {
		for k, h := range branchedSetPartitioning(rand.New(rand.NewSource(seed))) {
			fmt.Fprintf(&buf, "setpart   %2d.%d %s\n", seed, k, h)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		p := denseLP(rand.New(rand.NewSource(seed)))
		fmt.Fprintf(&buf, "dense     %2d %s\n", seed, solutionHash(p.Solve()))
	}

	path := filepath.Join("testdata", "solve.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("solve drifted from %s at line %d:\n got %s\nwant %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("solve drifted from %s: %d lines, want %d", path, len(got), len(exp))
	}
}

// solutionHash digests a solve result bit for bit.
func solutionHash(s *Solution, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	h := sha256.New()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	put(uint64(s.Status))
	put(math.Float64bits(s.Objective))
	for _, x := range s.X {
		put(math.Float64bits(x))
	}
	return fmt.Sprintf("%-9s %x", s.Status, h.Sum(nil)[:12])
}

// placementLP builds the §4.2 MBR-placement LP shape: a bounded corner
// (x, y) and, per pin, four free helper variables linearizing the max/min
// of the pin's net bounding box against the pin at corner + offset. All
// coordinates are integers, as in the placer. pins ≤ 0 draws 1–16 pins.
func placementLP(rng *rand.Rand, pins int) *Problem {
	if pins <= 0 {
		pins = 1 + rng.Intn(16)
	}
	lox, loy := float64(rng.Intn(5000)), float64(rng.Intn(5000))
	x0 := lox + float64(rng.Intn(400))
	y0 := loy + float64(rng.Intn(400))
	p := New(Minimize)
	x := p.AddVar(lox, x0, 0, "x")
	y := p.AddVar(loy, y0, 0, "y")
	negInf := math.Inf(-1)
	for i := 0; i < pins; i++ {
		dx, dy := float64(rng.Intn(40)), float64(rng.Intn(20))
		bx := lox - 600 + float64(rng.Intn(1500))
		by := loy - 600 + float64(rng.Intn(1500))
		bw, bh := float64(rng.Intn(300)), float64(rng.Intn(300))
		hx := p.AddVar(negInf, Inf, 1, "hx")
		lx := p.AddVar(negInf, Inf, -1, "lx")
		hy := p.AddVar(negInf, Inf, 1, "hy")
		ly := p.AddVar(negInf, Inf, -1, "ly")
		p.AddConstraint([]Term{{hx, 1}}, GE, bx+bw)
		p.AddConstraint([]Term{{hx, 1}, {x, -1}}, GE, dx)
		p.AddConstraint([]Term{{lx, 1}}, LE, bx)
		p.AddConstraint([]Term{{lx, 1}, {x, -1}}, LE, dx)
		p.AddConstraint([]Term{{hy, 1}}, GE, by+bh)
		p.AddConstraint([]Term{{hy, 1}, {y, -1}}, GE, dy)
		p.AddConstraint([]Term{{ly, 1}}, LE, by)
		p.AddConstraint([]Term{{ly, 1}, {y, -1}}, LE, dy)
	}
	return p
}

// setPartitioningLP builds a composition-sized exact-cover relaxation:
// rows registers, cols candidate sets of 1–4 members plus every singleton
// (so the integer problem stays feasible).
func setPartitioningLP(rng *rand.Rand, rows, cols int) *Problem {
	members := make([][]int, 0, rows+cols)
	for r := 0; r < rows; r++ {
		members = append(members, []int{r})
	}
	for c := 0; c < cols; c++ {
		k := 1 + rng.Intn(4)
		seen := map[int]bool{}
		var ms []int
		for len(ms) < k {
			if m := rng.Intn(rows); !seen[m] {
				seen[m] = true
				ms = append(ms, m)
			}
		}
		members = append(members, ms)
	}
	p := New(Minimize)
	for _, ms := range members {
		p.AddVar(0, 1, 1/float64(len(ms))+rng.Float64()*0.5, "")
	}
	for r := 0; r < rows; r++ {
		var terms []Term
		for v, ms := range members {
			for _, m := range ms {
				if m == r {
					terms = append(terms, Term{v, 1})
				}
			}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	return p
}

// branchedSetPartitioning solves a set-partitioning relaxation, then
// repeatedly fixes its most fractional variable (to 1 or 0 at random) with
// SetBounds and re-solves, the way branch & bound walks one dive. It
// returns the hash of every solve.
func branchedSetPartitioning(rng *rand.Rand) []string {
	p := setPartitioningLP(rng, 6+rng.Intn(20), 20+rng.Intn(200))
	var out []string
	for depth := 0; depth < 6; depth++ {
		s, err := p.Solve()
		out = append(out, solutionHash(s, err))
		if err != nil || s.Status != Optimal {
			break
		}
		branch, frac := -1, 1e-6
		for v, x := range s.X {
			if f := math.Min(x-math.Floor(x), math.Ceil(x)-x); f > frac {
				branch, frac = v, f
			}
		}
		if branch < 0 {
			break
		}
		if rng.Intn(2) == 0 {
			p.SetBounds(branch, 1, 1)
		} else {
			p.SetBounds(branch, 0, 0)
		}
	}
	return out
}

// denseLP builds a dense LP like BenchmarkSimplexDense, with ≤ and ≥ rows
// so phase 1 runs.
func denseLP(rng *rand.Rand) *Problem {
	nv, nc := 10+rng.Intn(50), 5+rng.Intn(35)
	p := New(Minimize)
	for j := 0; j < nv; j++ {
		p.AddVar(0, 20, rng.Float64()*4-2, "")
	}
	for r := 0; r < nc; r++ {
		terms := make([]Term, nv)
		for j := range terms {
			terms[j] = Term{j, rng.Float64() * 3}
		}
		if rng.Intn(4) == 0 {
			p.AddConstraint(terms, GE, 1+rng.Float64()*5)
		} else {
			p.AddConstraint(terms, LE, 10+rng.Float64()*40)
		}
	}
	return p
}

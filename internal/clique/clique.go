// Package clique provides clique enumeration over small dense graphs (≤ 64
// nodes, bitmask adjacency): Bron–Kerbosch maximal-clique enumeration with
// pivoting, and the valid sub-clique enumeration of §3 — every clique whose
// total register bit count matches (or, with incomplete MBRs allowed, fits
// under) an available MBR library width.
//
// Subgraphs reach this package only after partitioning (§3 caps them at 30
// nodes by default); composition rejects a subgraph bound above MaxNodes
// before it builds any graph.
package clique

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxNodes is the largest graph this package accepts.
const MaxNodes = 64

// Graph is an undirected graph over nodes 0..N-1 with bitmask adjacency.
type Graph struct {
	N   int
	adj []uint64
}

// NewGraph returns an empty graph on n nodes. It panics when n exceeds
// MaxNodes.
func NewGraph(n int) *Graph {
	if n < 0 || n > MaxNodes {
		panic(fmt.Sprintf("clique: graph size %d out of range [0,%d]", n, MaxNodes))
	}
	return &Graph{N: n, adj: make([]uint64, n)}
}

// AddEdge inserts the undirected edge (u, v). Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u] |= 1 << uint(v)
	g.adj[v] |= 1 << uint(u)
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u]&(1<<uint(v)) != 0 }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return bits.OnesCount64(g.adj[u]) }

// Neighbors returns the adjacency bitmask of u.
func (g *Graph) Neighbors(u int) uint64 { return g.adj[u] }

// IsClique reports whether the node set (bitmask) is a clique.
func (g *Graph) IsClique(set uint64) bool {
	for s := set; s != 0; {
		u := bits.TrailingZeros64(s)
		s &^= 1 << uint(u)
		rest := set &^ (1 << uint(u))
		if rest&^g.adj[u] != 0 {
			return false
		}
	}
	return true
}

// Members expands a bitmask into a sorted node slice.
func Members(set uint64) []int {
	out := make([]int, 0, bits.OnesCount64(set))
	for s := set; s != 0; {
		u := bits.TrailingZeros64(s)
		s &^= 1 << uint(u)
		out = append(out, u)
	}
	return out
}

// MaskOf builds a bitmask from node indices.
func MaskOf(nodes []int) uint64 {
	var m uint64
	for _, n := range nodes {
		m |= 1 << uint(n)
	}
	return m
}

// MaximalCliques enumerates all maximal cliques using Bron–Kerbosch with
// Tomita pivoting, returned as bitmasks in deterministic order.
func MaximalCliques(g *Graph) []uint64 {
	var out []uint64
	all := uint64(0)
	if g.N > 0 {
		all = ^uint64(0) >> uint(64-g.N)
	}
	var bk func(r, p, x uint64)
	bk = func(r, p, x uint64) {
		if p == 0 && x == 0 {
			out = append(out, r)
			return
		}
		// Pivot: vertex of p∪x with most neighbours in p.
		pivot, best := -1, -1
		for s := p | x; s != 0; {
			u := bits.TrailingZeros64(s)
			s &^= 1 << uint(u)
			cnt := bits.OnesCount64(p & g.adj[u])
			if cnt > best {
				best, pivot = cnt, u
			}
		}
		cand := p &^ g.adj[pivot]
		for s := cand; s != 0; {
			v := bits.TrailingZeros64(s)
			s &^= 1 << uint(v)
			vb := uint64(1) << uint(v)
			bk(r|vb, p&g.adj[v], x&g.adj[v])
			p &^= vb
			x |= vb
		}
	}
	bk(0, all, 0)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubCliqueSpec configures valid sub-clique enumeration.
type SubCliqueSpec struct {
	// Bits[i] is the register bit count of node i (≥ 1).
	Bits []int
	// Widths are the MBR bit widths available in the library, ascending.
	Widths []int
	// AllowIncomplete admits cliques whose bit total is below some library
	// width (they map to the smallest width ≥ total, leaving D/Q pairs
	// unconnected).
	AllowIncomplete bool
	// MaxCandidates caps the enumeration (0 = unlimited). When hit, the
	// enumeration stops and Truncated is set on the result.
	MaxCandidates int
}

// SubCliqueResult is the output of EnumerateSubCliques.
type SubCliqueResult struct {
	// Cliques are the valid sub-cliques as bitmasks (singletons included),
	// in deterministic DFS order.
	Cliques []uint64
	// TotalBits[i] is the register bit total of Cliques[i].
	TotalBits []int
	// Truncated reports whether MaxCandidates stopped the enumeration.
	Truncated bool
}

// EnumerateSubCliques lists every clique of g (not just maximal ones) whose
// bit total is valid for the spec: exactly equal to a library width, or —
// with AllowIncomplete — bounded by the largest width. Cliques are produced
// in layers of increasing member count (all singletons, then all pairs,
// then triples, ...), each exactly once via ordered DFS extension — the
// dynamic-programming style enumeration of §3. The layering matters under
// MaxCandidates truncation: a lexicographic DFS would exhaust the budget
// inside the first nodes' subtrees and leave later registers with no merge
// candidates at all, whereas layered truncation degrades by losing only the
// largest groupings.
func EnumerateSubCliques(g *Graph, spec SubCliqueSpec) (*SubCliqueResult, error) {
	if len(spec.Bits) != g.N {
		return nil, fmt.Errorf("clique: Bits length %d != graph size %d", len(spec.Bits), g.N)
	}
	if len(spec.Widths) == 0 {
		return nil, fmt.Errorf("clique: no library widths")
	}
	widths := append([]int(nil), spec.Widths...)
	sort.Ints(widths)
	maxW := widths[len(widths)-1]
	widthOK := make([]bool, maxW+1)
	for _, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("clique: non-positive width %d", w)
		}
		widthOK[w] = true
	}
	for i, b := range spec.Bits {
		if b <= 0 {
			return nil, fmt.Errorf("clique: node %d has non-positive bits %d", i, b)
		}
	}

	res := &SubCliqueResult{}
	valid := func(total int) bool {
		if total > maxW {
			return false
		}
		if widthOK[total] {
			return true
		}
		return spec.AllowIncomplete // some width ≥ total exists since total ≤ maxW
	}
	emit := func(set uint64, total int) bool {
		res.Cliques = append(res.Cliques, set)
		res.TotalBits = append(res.TotalBits, total)
		if spec.MaxCandidates > 0 && len(res.Cliques) >= spec.MaxCandidates {
			res.Truncated = true
			return false
		}
		return true
	}

	all := uint64(0)
	if g.N > 0 {
		all = ^uint64(0) >> uint(64-g.N)
	}
	// dfs enumerates cliques of exactly `want` members extending set.
	var dfs func(set uint64, size, total int, cand uint64, want int) bool
	dfs = func(set uint64, size, total int, cand uint64, want int) bool {
		for s := cand; s != 0; {
			v := bits.TrailingZeros64(s)
			s &^= 1 << uint(v)
			nb := total + spec.Bits[v]
			if nb > maxW {
				continue // this vertex is too wide here; another may fit
			}
			nset := set | 1<<uint(v)
			if size+1 == want {
				if valid(nb) && !emit(nset, nb) {
					return false
				}
				continue
			}
			higher := ^uint64(0) << uint(v+1)
			if !dfs(nset, size+1, nb, cand&g.adj[v]&higher, want) {
				return false
			}
		}
		return true
	}
	// Layer by member count; every member has ≥ 1 bit, so no clique can
	// have more members than maxW bits.
	for want := 1; want <= maxW && want <= g.N; want++ {
		if !dfs(0, 0, 0, all, want) {
			break
		}
	}
	return res, nil
}

// Package engine defines the contract shared by the repo's retained
// incremental engines — timing (sta.Engine), register compatibility
// (compatgraph.Engine) and clock tree (cts.Engine).
//
// Each engine caches derived state across design edits and serves updates
// from a delta path when it can, falling back to a from-scratch rebuild
// when it cannot (structural changes, touched-record overflow, changed
// domain sets). The contract captures the operations the composition flow
// needs uniformly across all three: drop the cache, bound parallelism and
// report how updates were satisfied. Construction and the update calls
// themselves stay engine-specific — their signatures differ by necessity
// (an STA run returns timing results, a compat update needs those results
// as input, a CTS update edits the netlist).
package engine

// Summary is the uniform slice of an engine's counters: how many updates
// it served, how many stayed on the delta path, how many fell back to a
// full rebuild, and what the most recent one did.
type Summary struct {
	Updates  int
	Deltas   int
	Rebuilds int
	// LastKind names the most recent update's outcome in the engine's own
	// vocabulary (e.g. "delta", "incremental", "touched-overflow",
	// "attach").
	LastKind string
}

// Retained is the interface every retained engine satisfies.
type Retained interface {
	// Invalidate drops the retained state; the next update rebuilds from
	// scratch. Required after edits that bypassed the netlist API.
	Invalidate()
	// SetWorkers bounds the engine's parallelism. Every engine reads the
	// value the same way: 0 (or negative) means one worker per available
	// CPU (runtime.GOMAXPROCS(0)), 1 forces the sequential path, n > 1
	// allows up to n workers. Results are identical for any value.
	SetWorkers(n int)
	// Summary reports the uniform update counters.
	Summary() Summary
}

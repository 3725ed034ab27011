// Package engine defines the counters the repo's retained engines — timing
// (sta.Engine), clock tree (cts.Engine), design metrics (metrics.Tracker)
// and congestion (route.Engine) — report uniformly. A flow session reports
// the same Summary under "compat" for its compatibility-graph builds
// (compat.Build), each a rebuild of kind "build".
//
// The engines cache derived state across design edits and serve updates
// from a delta path when they can, falling back to a from-scratch rebuild
// when they cannot (structural changes the delta cannot absorb, changed
// domain sets, a cursor older than the design's last ResetTouchedLog).
// Construction and the update calls stay engine-specific — their
// signatures differ by necessity (an STA run returns timing results, a
// CTS update edits the netlist). The engines with a worker pool read
// SetWorkers the same way: 0 (or negative) means one worker per available
// CPU (runtime.GOMAXPROCS(0)), 1 forces the sequential path, n > 1 allows
// up to n workers, and results are identical for any value.
package engine

// Summary is the uniform slice of an engine's counters: how many updates
// it served, how many stayed on the delta path, how many fell back to a
// full rebuild, and what the most recent one did.
type Summary struct {
	Updates  int
	Deltas   int
	Rebuilds int
	// LastKind names the most recent update's outcome in the engine's own
	// vocabulary (e.g. "delta", "incremental", "build", "attach").
	LastKind string
}

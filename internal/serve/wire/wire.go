// Package wire defines the JSON wire format shared by the composition
// server (cmd/mbrserved, internal/serve) and the stats tool's machine
// readable mode (cmd/mbrstats -json): retained-engine summaries, Table 1
// metric snapshots and per-pass engine statistics. Keeping the encodings
// in one package guarantees a report scraped from the CLI parses exactly
// like one served over HTTP.
package wire

import (
	"repro/internal/engine"
	"repro/internal/flow"
)

// EngineSummary is the uniform engine.Retained counter view on the wire.
type EngineSummary struct {
	Updates  int    `json:"updates"`
	Deltas   int    `json:"deltas"`
	Rebuilds int    `json:"rebuilds"`
	LastKind string `json:"lastKind"`
}

// EngineSummaries maps engine key ("sta", "compat", "cts", "metrics",
// "route", "compose") to its counter summary.
type EngineSummaries map[string]EngineSummary

// Engines converts the retained engines' summaries to wire form.
func Engines(m map[string]engine.Summary) EngineSummaries {
	out := make(EngineSummaries, len(m))
	for k, s := range m {
		out[k] = EngineSummary{
			Updates:  s.Updates,
			Deltas:   s.Deltas,
			Rebuilds: s.Rebuilds,
			LastKind: s.LastKind,
		}
	}
	return out
}

// Metrics is one Table 1 row on the wire.
type Metrics struct {
	AreaUM2          float64 `json:"areaUM2"`
	Cells            int     `json:"cells"`
	TotalRegs        int     `json:"totalRegs"`
	CompRegs         int     `json:"compRegs"`
	ClkBufs          int     `json:"clkBufs"`
	ClkCapPF         float64 `json:"clkCapPF"`
	TNSNS            float64 `json:"tnsNS"`
	WNSPS            float64 `json:"wnsPS"`
	FailingEndpoints int     `json:"failingEndpoints"`
	TotalEndpoints   int     `json:"totalEndpoints"`
	OverflowEdges    int     `json:"overflowEdges"`
	WLClkMM          float64 `json:"wlClkMM"`
	WLSigMM          float64 `json:"wlSigMM"`
}

// FromMetrics converts a flow metrics snapshot to wire form.
func FromMetrics(m flow.Metrics) Metrics {
	return Metrics{
		AreaUM2:          m.AreaUM2,
		Cells:            m.Cells,
		TotalRegs:        m.TotalRegs,
		CompRegs:         m.CompRegs,
		ClkBufs:          m.ClkBufs,
		ClkCapPF:         m.ClkCapPF,
		TNSNS:            m.TNSNS,
		WNSPS:            m.WNSPS,
		FailingEndpoints: m.FailingEndpoints,
		TotalEndpoints:   m.TotalEndpoints,
		OverflowEdges:    m.OverflowEdges,
		WLClkMM:          m.WLClkMM,
		WLSigMM:          m.WLSigMM,
	}
}

// PassStats is one composition pass's retained-engine accounting: what the
// compatibility-graph, compose, clock-tree and congestion engines did to
// serve the pass. cmd/mbrstats -passes emits one per pass; the server's
// compose endpoint emits the same shape per request.
type PassStats struct {
	Pass int `json:"pass"`

	// Compatibility-graph engine.
	Nodes         int    `json:"nodes"`
	Edges         int    `json:"edges"`
	Components    int    `json:"components"`
	UpdateKind    string `json:"updateKind"`
	NodesAdded    int    `json:"nodesAdded"`
	NodesRemoved  int    `json:"nodesRemoved"`
	NodesDirty    int    `json:"nodesDirty"`
	PairsTested   int    `json:"pairsTested"`
	EdgesRetested int    `json:"edgesRetested"`

	// Composition outcome and compose-engine memo accounting.
	MBRs               int    `json:"mbrs"`
	RegsBefore         int    `json:"regsBefore"`
	RegsAfter          int    `json:"regsAfter"`
	TruncatedSubgraphs int    `json:"truncatedSubgraphs"`
	ComposeKind        string `json:"composeKind"`
	SubgraphsReplayed  int    `json:"subgraphsReplayed"`
	SubgraphsSolved    int    `json:"subgraphsSolved"`
	ILPNodesSaved      int    `json:"ilpNodesSaved"`
	// Work-stealing shard scheduler: shards scheduled (every subgraph) and
	// shards stolen from another worker's queue. SchedSteals varies with the goroutine schedule — diagnostics, not
	// part of any determinism oracle.
	SchedShards int `json:"schedShards"`
	SchedSteals int `json:"schedSteals"`

	// Clock-tree engine.
	CTSKind           string  `json:"ctsKind"`
	ReclusteredLeaves int     `json:"reclusteredLeaves"`
	RepairedAncestors int     `json:"repairedAncestors"`
	BuffersAdded      int     `json:"buffersAdded"`
	BuffersRemoved    int     `json:"buffersRemoved"`
	CTSFallback       string  `json:"ctsFallback,omitempty"`
	ClockBuffers      int     `json:"clockBuffers"`
	ClockCapPF        float64 `json:"clockCapPF"`
	ClockWLMM         float64 `json:"clockWLMM"`

	// Congestion engine.
	RouteKind     string `json:"routeKind"`
	OverflowEdges int    `json:"overflowEdges"`
	NetsDelta     int    `json:"netsDelta"`
	TilesTouched  int    `json:"tilesTouched"`
}

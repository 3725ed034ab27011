// Package wire defines the JSON wire format shared by the composition
// server (cmd/mbrserved, internal/serve) and the stats tool's machine
// readable mode (cmd/mbrstats -json): retained-engine summaries and
// Table 1 metric snapshots. Keeping the encodings in one package
// guarantees a report scraped from the CLI parses exactly like one served
// over HTTP.
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
// "route") to its counter summary.
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

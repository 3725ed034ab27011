package cts

import (
	"cmp"
	"slices"

	"repro/internal/netlist"
)

// Retained clock-network metrics: Measure walks every instance and every
// net of the design. While the engine's trees are in sync with the design,
// Metrics instead folds only the nets it owns — every domain's root net and
// tree nets, via the shared netlist.Design.NetContrib helper — and counts
// the register sinks on them, adding the foreign buffer and sink counts
// snapshotted at Attach. That costs O(clock nets + clock pins) per call,
// the same walk Update already makes over every domain's sinks. The one
// float total (TotalCapFF) is folded in ascending net-ID order — exactly
// Measure's fold order — so the result is bit-identical to the batch walk.
// (Clock nets outside every domain are sink-less while the engine is in
// sync, and a sink-less net contributes exactly 0 to both totals, so
// skipping them does not perturb the fold: adding 0.0 is exact.)
//
// Any other state (detached, or an edit since the last Update/Canonicalize)
// falls back to the batch Measure — the oracle the fold is tested against —
// and counts Stats.MetricsFallbacks.

// netMetric is one clock net's contribution to Metrics.
type netMetric struct {
	id    netlist.NetID
	capFF float64
	hpwl  int64
}

// Metrics returns the design's clock-network metrics, equal bit-for-bit to
// Measure(d), by a fold over the retained domains' nets when the trees are
// in sync with the design and by a batch walk otherwise.
func (e *Engine) Metrics() Metrics {
	e.stats.MetricsCalls++
	if !e.attached || e.d.Epoch() != e.cursor {
		e.stats.MetricsFallbacks++
		return Measure(e.d)
	}
	m := Metrics{Buffers: len(e.ownBuf) + e.foreignBufs, Sinks: e.foreignSinks}
	e.netBuf = e.netBuf[:0]
	for _, dom := range e.domains {
		m.Sinks += e.appendNetMetric(dom.root)
		for _, lvl := range dom.levels {
			for _, nd := range lvl {
				m.Sinks += e.appendNetMetric(nd.net)
			}
		}
	}
	slices.SortFunc(e.netBuf, func(a, b netMetric) int { return cmp.Compare(a.id, b.id) })
	for _, en := range e.netBuf {
		m.TotalCapFF += en.capFF
		m.WirelengthDBU += en.hpwl
	}
	return m
}

// appendNetMetric appends n's contribution to the engine's fold buffer and
// returns the number of register clock sinks on n.
func (e *Engine) appendNetMetric(n *netlist.Net) int {
	d := e.d
	capFF, hpwl := d.NetContrib(n)
	e.netBuf = append(e.netBuf, netMetric{id: n.ID, capFF: capFF, hpwl: hpwl})
	sinks := 0
	for _, pid := range n.Sinks {
		p := d.Pin(pid)
		if p.Kind != netlist.PinClock {
			continue
		}
		if in := d.Inst(p.Inst); in != nil && in.Kind == netlist.KindReg {
			sinks++
		}
	}
	return sinks
}

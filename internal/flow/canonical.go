package flow

import (
	"fmt"
	"strconv"
	"strings"
)

// Canonical renders the report as a deterministic, byte-comparable string:
// every metric and composition outcome, excluding wall-clock times and the
// worker count (the two quantities that legitimately vary between runs of
// the same flow). Floats are formatted with strconv's shortest round-trip
// representation, so two canonical strings are equal exactly when every
// number is bit-identical.
//
// It is the comparison key of the parallel-determinism harness (a Workers=8
// run must produce the same bytes as Workers=1) and the serialization the
// golden-file regression tests pin.
func (r *Report) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s\n", r.Design)
	writeMetrics(&b, "base", r.Base)
	writeMetrics(&b, "ours", r.Ours)
	fmt.Fprintf(&b, "skewed %d resized %d decomposed %d restored %d\n",
		r.SkewedMBRs, r.ResizedMBRs, r.DecomposedMBRs, r.RestoredMBRs)
	if c := r.Compose; c != nil {
		fmt.Fprintf(&b, "compose regs %d->%d composable %d subgraphs %d candidates %d truncated %d\n",
			c.RegsBefore, c.RegsAfter, c.ComposableRegs, c.Subgraphs, c.Candidates, c.TruncatedSubgraphs)
		fmt.Fprintf(&b, "compose ilpnodes %d objective %s incomplete %d legalized moved %d failed %d\n",
			c.ILPNodes, ftoa(c.ObjectiveSum), c.IncompleteMBRs, c.LegalizationMoved, c.LegalizationFailed)
		for _, m := range c.MBRs {
			members := make([]string, len(m.Members))
			for i, id := range m.Members {
				members[i] = strconv.Itoa(int(id))
			}
			fmt.Fprintf(&b, "mbr %s cell %s bits %d incomplete %v pos %d,%d w %s members %s\n",
				m.Inst.Name, m.Cell.Name, m.Bits, m.Incomplete,
				m.Pos.X, m.Pos.Y, ftoa(m.Weight), strings.Join(members, ","))
		}
	}
	return b.String()
}

// Canonical renders one metrics snapshot with the same deterministic,
// byte-comparable formatting Report.Canonical uses. It is the comparison
// key of the serving determinism harness: a measurement served by
// cmd/mbrserved must produce the same bytes as a single-threaded Session
// replay of the same edit stream.
func (m Metrics) Canonical() string {
	var b strings.Builder
	writeMetrics(&b, "m", m)
	return b.String()
}

func writeMetrics(b *strings.Builder, label string, m Metrics) {
	// Field order is fixed by this function, not by reflection, so the
	// serialization never shifts under struct reordering.
	type field struct {
		name string
		val  string
	}
	fields := []field{
		{"area_um2", ftoa(m.AreaUM2)},
		{"cells", strconv.Itoa(m.Cells)},
		{"total_regs", strconv.Itoa(m.TotalRegs)},
		{"comp_regs", strconv.Itoa(m.CompRegs)},
		{"clk_bufs", strconv.Itoa(m.ClkBufs)},
		{"clk_cap_pf", ftoa(m.ClkCapPF)},
		{"tns_ns", ftoa(m.TNSNS)},
		{"wns_ps", ftoa(m.WNSPS)},
		{"failing_ep", strconv.Itoa(m.FailingEndpoints)},
		{"total_ep", strconv.Itoa(m.TotalEndpoints)},
		{"overflow_edges", strconv.Itoa(m.OverflowEdges)},
		{"wl_clk_mm", ftoa(m.WLClkMM)},
		{"wl_sig_mm", ftoa(m.WLSigMM)},
	}
	for _, f := range fields {
		fmt.Fprintf(b, "%s %s %s\n", label, f.name, f.val)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Command paperrepro regenerates every table and figure of the paper's
// evaluation on the synthetic benchmark suite:
//
//	paperrepro -all                 # everything below
//	paperrepro -table1              # Table 1: Base vs Ours on D1..D5
//	paperrepro -fig3                # the worked example's candidate weights
//	paperrepro -fig5                # bit-width histograms before/after
//	paperrepro -fig6                # ILP vs heuristic register counts
//	paperrepro -ablation bound      # §3 subgraph-bound sweep
//	paperrepro -ablation weights    # §3.2 weights on/off
//	paperrepro -ablation incomplete # incomplete-MBR admission sweep
//	paperrepro -ablation decompose  # §5 decompose existing MBRs on/off
//
// -scale divides the paper's design sizes (default 20; smaller = bigger
// designs and longer runtime). -maxrss-mb N exits 1 when the process's
// peak resident set exceeds N MB, or cannot be read; the scale smoke gate
// runs `paperrepro -table1 -scale 5 -maxrss-mb 4096`.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/paperex"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run everything")
		table1   = flag.Bool("table1", false, "Table 1 reproduction")
		fig3     = flag.Bool("fig3", false, "Fig. 3 worked example")
		fig5     = flag.Bool("fig5", false, "Fig. 5 bit-width histograms")
		fig6     = flag.Bool("fig6", false, "Fig. 6 ILP vs heuristic")
		ablation = flag.String("ablation", "", "bound | weights | incomplete | decompose")
		scale    = flag.Int("scale", bench.DefaultScale, "design size divisor")
		maxRSSMB = flag.Float64("maxrss-mb", 0, "exit 1 when the process peak RSS exceeds this many MB (0 = no bound)")
	)
	flag.IntVar(&workerCount, "workers", 0,
		"composition worker count (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}
	if *all {
		*table1, *fig3, *fig5, *fig6 = true, true, true, true
	}
	ran := false
	if *fig3 {
		runFig3()
		ran = true
	}
	if *table1 {
		runTable1(*scale)
		ran = true
	}
	if *fig5 {
		runFig5(*scale)
		ran = true
	}
	if *fig6 {
		runFig6(*scale)
		ran = true
	}
	switch *ablation {
	case "bound":
		runAblationBound(*scale)
		ran = true
	case "weights":
		runAblationWeights(*scale)
		ran = true
	case "incomplete":
		runAblationIncomplete(*scale)
		ran = true
	case "decompose":
		runAblationDecompose(*scale)
		ran = true
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown ablation %q\n", *ablation)
		os.Exit(2)
	}
	if *all {
		runAblationBound(*scale)
		runAblationWeights(*scale)
		runAblationIncomplete(*scale)
		runAblationDecompose(*scale)
	}
	if !ran && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *maxRSSMB > 0 {
		checkPeakRSS(*maxRSSMB)
	}
}

// checkPeakRSS enforces the -maxrss-mb bound. An unreadable peak RSS fails
// the check: the bound must never pass by default.
func checkPeakRSS(boundMB float64) {
	rss, err := prof.PeakRSSMB()
	if err != nil {
		fatal(err)
	}
	if rss > boundMB {
		fatal(fmt.Errorf("paperrepro: peak RSS %.0f MB exceeds the -maxrss-mb %.0f MB bound", rss, boundMB))
	}
	fmt.Fprintf(os.Stderr, "paperrepro: peak RSS %.0f MB within the %.0f MB bound\n", rss, boundMB)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func banner(s string) {
	fmt.Printf("\n=== %s ===\n\n", s)
}

// workerCount is the -workers flag: composition parallelism for every flow
// run below. Zero means GOMAXPROCS; the output is identical at any setting.
var workerCount int

func runFlow(spec bench.Spec, mutate func(*flow.Config)) *flow.Report {
	res, err := bench.Generate(spec)
	if err != nil {
		fatal(err)
	}
	cfg := flow.DefaultConfig()
	cfg.Workers = workerCount
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := flow.Run(res.Design, res.Plan, cfg)
	if err != nil {
		fatal(err)
	}
	return rep
}

// ---- Table 1 ----

func runTable1(scale int) {
	banner("Table 1: design characteristics before and after MBR composition")
	report.Table1Header(os.Stdout)
	for _, spec := range bench.All(bench.ProfileOpts{Scale: scale}) {
		rep := runFlow(spec, nil)
		report.Table1Rows(os.Stdout, rep)
	}
}

// ---- Fig. 3 ----

func runFig3() {
	banner("Fig. 3: candidate MBR weights on the worked example (Fig. 1/2)")
	for _, mode := range []struct {
		label      string
		small8     bool
		incomplete bool
	}{
		{"incomplete 8-bit MBRs disabled", false, false},
		{"incomplete 8-bit MBRs enabled (example-sized 8-bit cell)", true, true},
	} {
		fmt.Printf("-- %s --\n", mode.label)
		d, regs, err := paperex.Design(mode.small8)
		if err != nil {
			fatal(err)
		}
		g := paperex.Graph(d, regs)
		opts := core.DefaultOptions()
		opts.AllowIncomplete = mode.incomplete
		infos, err := core.InspectCandidates(d, g, opts)
		if err != nil {
			fatal(err)
		}
		// Record names up front: merged members are removed from the design.
		instName := map[netlist.InstID]string{}
		d.Insts(func(in *netlist.Inst) { instName[in.ID] = in.Name })
		nameOf := func(ids []netlist.InstID) string {
			var ns []string
			for _, id := range ids {
				ns = append(ns, instName[id])
			}
			sort.Strings(ns)
			return strings.Join(ns, "")
		}
		sort.Slice(infos, func(i, j int) bool {
			if infos[i].Bits != infos[j].Bits {
				return infos[i].Bits < infos[j].Bits
			}
			return nameOf(infos[i].Members) < nameOf(infos[j].Members)
		})
		for _, ci := range infos {
			inc := ""
			if ci.Incomplete {
				inc = fmt.Sprintf("  (incomplete %d-bit cell)", ci.Width)
			}
			fmt.Printf("  %-5s bits=%d blockers=%d w=%.3f%s\n",
				nameOf(ci.Members), ci.Bits, ci.Blockers, ci.Weight, inc)
		}
		res, err := core.Compose(d, g, nil, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  ILP objective %.4f, registers %d -> %d, selected:",
			res.ObjectiveSum, res.RegsBefore, res.RegsAfter)
		for _, m := range res.MBRs {
			fmt.Printf(" %s", nameOf(m.Members))
		}
		fmt.Println()
	}
}

// ---- Fig. 5 ----

func runFig5(scale int) {
	banner("Fig. 5: MBR bit widths before & after composition")
	for _, spec := range bench.All(bench.ProfileOpts{Scale: scale}) {
		res, err := bench.Generate(spec)
		if err != nil {
			fatal(err)
		}
		before := core.BitWidthHistogram(res.Design)
		cfg := flow.DefaultConfig()
		cfg.Workers = workerCount
		if _, err := flow.Run(res.Design, res.Plan, cfg); err != nil {
			fatal(err)
		}
		report.Histogram(os.Stdout, spec.Name+" before:", before)
		report.Histogram(os.Stdout, spec.Name+" after:", core.BitWidthHistogram(res.Design))
		fmt.Println()
	}
}

// ---- Fig. 6 ----

func runFig6(scale int) {
	banner("Fig. 6: total registers, ILP vs maximal-clique/mapping heuristic")
	var rows []report.Fig6Row
	for _, spec := range bench.All(bench.ProfileOpts{Scale: scale}) {
		ilp := runFlow(spec, nil)
		greedy := runFlow(spec, func(cfg *flow.Config) {
			cfg.Compose.Method = core.MethodGreedy
		})
		rows = append(rows, report.Fig6Row{
			Design: spec.Name,
			Base:   ilp.Base.TotalRegs,
			ILP:    ilp.Ours.TotalRegs,
			Greedy: greedy.Ours.TotalRegs,
		})
	}
	report.Fig6(os.Stdout, rows)
}

// ---- Ablations ----

func runAblationBound(scale int) {
	banner("Ablation: subgraph node bound (§3 — paper reports a knee at 20-30)")
	spec := bench.D1(bench.ProfileOpts{Scale: scale})
	fmt.Printf("%6s %10s %12s %12s\n", "bound", "regsAfter", "candidates", "composeTime")
	for _, bound := range []int{10, 15, 20, 25, 30, 40, 50} {
		rep := runFlow(spec, func(cfg *flow.Config) {
			cfg.Compose.MaxSubgraphNodes = bound
		})
		fmt.Printf("%6d %10d %12d %12s\n",
			bound, rep.Ours.TotalRegs, rep.Compose.Candidates,
			rep.ComposeTime.Round(1e6))
	}
}

func runAblationWeights(scale int) {
	banner("Ablation: placement-aware weights (§3.2) on/off")
	fmt.Printf("%-6s %-9s %9s %9s %11s %11s\n",
		"design", "weights", "regsAfter", "ovflEdges", "WLtotal(mm)", "legalMoved")
	for _, spec := range bench.All(bench.ProfileOpts{Scale: scale}) {
		for _, useWeights := range []bool{true, false} {
			rep := runFlow(spec, func(cfg *flow.Config) {
				cfg.Compose.UseWeights = useWeights
			})
			fmt.Printf("%-6s %-9v %9d %9d %11.2f %11d\n",
				spec.Name, useWeights, rep.Ours.TotalRegs, rep.Ours.OverflowEdges,
				rep.Ours.WLClkMM+rep.Ours.WLSigMM, rep.Compose.LegalizationMoved)
		}
	}
}

func runAblationDecompose(scale int) {
	banner("Ablation: decompose existing max-width MBRs (§5 future work), D4 profile")
	spec := bench.D4(bench.ProfileOpts{Scale: scale})
	fmt.Printf("%-12s %9s %10s %9s %10s %10s\n",
		"mode", "regsAfter", "clkCap(pF)", "area", "decomposed", "restored")
	for _, decompose := range []bool{false, true} {
		label := "skip-8bit"
		if decompose {
			label = "decompose"
		}
		rep := runFlow(spec, func(cfg *flow.Config) {
			if decompose {
				cfg.Decompose = flow.DecomposeConfig{All: true}
			}
		})
		fmt.Printf("%-12s %9d %10.2f %9.0f %10d %10d\n",
			label, rep.Ours.TotalRegs, rep.Ours.ClkCapPF, rep.Ours.AreaUM2,
			rep.DecomposedMBRs, rep.RestoredMBRs)
	}
}

func runAblationIncomplete(scale int) {
	banner("Ablation: incomplete MBRs (admission rule sweep)")
	spec := bench.D2(bench.ProfileOpts{Scale: scale})
	fmt.Printf("%-22s %9s %10s %12s\n", "mode", "regsAfter", "incomplete", "area(um2)")
	type mode struct {
		label    string
		allow    bool
		overhead float64
	}
	for _, m := range []mode{
		{"disabled", false, 0},
		{"cap 5% (paper)", true, 0.05},
		{"cap 15%", true, 0.15},
		{"cap 30%", true, 0.30},
	} {
		rep := runFlow(spec, func(cfg *flow.Config) {
			cfg.Compose.AllowIncomplete = m.allow
			cfg.Compose.IncompleteAreaOverhead = m.overhead
		})
		fmt.Printf("%-22s %9d %10d %12.0f\n",
			m.label, rep.Ours.TotalRegs, rep.Compose.IncompleteMBRs, rep.Ours.AreaUM2)
	}
}

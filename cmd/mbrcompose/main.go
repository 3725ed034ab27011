// Command mbrcompose runs the full Fig. 4 flow — base measurement, MBR
// composition, useful skew, MBR sizing, CTS rebuild, final measurement — on
// a design and prints a Table 1-style row pair.
//
// The design comes either from a JSON file produced by benchgen or from a
// built-in profile:
//
//	mbrcompose -profile D1 -scale 20
//	mbrcompose -design d1.json -scan d1.scan.json
//	mbrcompose -profile D2 -method greedy -noweights -noincomplete
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/scan"
)

func main() {
	var (
		profile      = flag.String("profile", "", "built-in profile: D1..D5")
		scale        = flag.Int("scale", bench.DefaultScale, "profile scale divisor")
		designPath   = flag.String("design", "", "design JSON (alternative to -profile)")
		scanPath     = flag.String("scan", "", "scan plan JSON (with -design)")
		method       = flag.String("method", "ilp", "composition method: ilp | greedy")
		noWeights    = flag.Bool("noweights", false, "disable the placement-aware weights (§3.2)")
		noIncomplete = flag.Bool("noincomplete", false, "disallow incomplete MBRs")
		bound        = flag.Int("bound", 30, "max subgraph nodes (§3 partition bound, at most 64)")
		noSkew       = flag.Bool("noskew", false, "skip useful-skew assignment")
		noSizing     = flag.Bool("nosizing", false, "skip MBR sizing")
		fig5         = flag.Bool("fig5", false, "also print the bit-width histograms (Fig. 5)")
		workers      = flag.Int("workers", 0, "composition worker count (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var (
		d    *netlist.Design
		plan *scan.Plan
	)
	switch {
	case *designPath != "":
		f, err := os.Open(*designPath)
		if err != nil {
			fatal(err)
		}
		d, err = netlist.ReadJSON(f, lib.MustGenerateDefault())
		f.Close()
		if err != nil {
			fatal(err)
		}
		plan = scan.NewPlan()
		if *scanPath != "" {
			sf, err := os.Open(*scanPath)
			if err != nil {
				fatal(err)
			}
			plan, err = scan.ReadJSON(sf, d)
			sf.Close()
			if err != nil {
				fatal(err)
			}
		}
	case *profile != "":
		spec, err := profileSpec(*profile, *scale)
		if err != nil {
			fatal(err)
		}
		res, err := bench.Generate(spec)
		if err != nil {
			fatal(err)
		}
		d, plan = res.Design, res.Plan
	default:
		fmt.Fprintln(os.Stderr, "need -profile or -design")
		os.Exit(2)
	}

	cfg := flow.DefaultConfig()
	if *method == "greedy" {
		cfg.Compose.Method = core.MethodGreedy
	}
	cfg.Compose.UseWeights = !*noWeights
	cfg.Compose.AllowIncomplete = !*noIncomplete
	cfg.Compose.MaxSubgraphNodes = *bound
	cfg.UsefulSkew = !*noSkew
	cfg.Sizing = !*noSizing
	cfg.Workers = *workers

	before := core.BitWidthHistogram(d)
	rep, err := flow.Run(d, plan, cfg)
	if err != nil {
		fatal(err)
	}
	report.Table1Header(os.Stdout)
	report.Table1Rows(os.Stdout, rep)
	fmt.Printf("\ncomposed %d MBRs (%d incomplete), %d candidates over %d subgraphs, %d B&B nodes, skewed %d, resized %d\n",
		len(rep.Compose.MBRs), rep.Compose.IncompleteMBRs, rep.Compose.Candidates,
		rep.Compose.Subgraphs, rep.Compose.ILPNodes, rep.SkewedMBRs, rep.ResizedMBRs)
	if *fig5 {
		fmt.Println()
		report.Histogram(os.Stdout, "Register bit widths before composition:", before)
		report.Histogram(os.Stdout, "Register bit widths after composition:", core.BitWidthHistogram(d))
	}
}

func profileSpec(name string, scale int) (bench.Spec, error) {
	o := bench.ProfileOpts{Scale: scale}
	switch name {
	case "D1":
		return bench.D1(o), nil
	case "D2":
		return bench.D2(o), nil
	case "D3":
		return bench.D3(o), nil
	case "D4":
		return bench.D4(o), nil
	case "D5":
		return bench.D5(o), nil
	}
	return bench.Spec{}, fmt.Errorf("unknown profile %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

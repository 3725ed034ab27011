// Command mbrstats reports the composition-relevant statistics of a design:
// register counts by width and class, compatibility graph size and exclusion
// reasons, clock domain population, scan chain shapes, timing summary, and
// clock network metrics. The default run does not modify the design;
// -passes N additionally runs N composition passes on the in-memory copy
// and reports, per pass, the compatibility graph it built (node/edge
// counts, connected components, pairs tested and the tests that rejected
// them, build time), what composition did (MBRs formed,
// truncated subgraphs), and what the retained clock-tree engine did to fold
// the merges into its live trees (re-clustered leaves, repaired ancestors,
// buffer churn, fallback reason).
//
// -json emits the same report as one JSON document. Engine counters use the
// wire package's encoding (internal/serve/wire), so they parse exactly like
// the composition server's wire.EngineSummaries.
//
//	mbrstats -profile D1
//	mbrstats -profile D1 -passes 3
//	mbrstats -profile D2 -passes 3 -json | jq .passes[0].pairsTested
//	mbrstats -design d1.json -scan d1.scan.json
//	benchgen -profile D3 -out /dev/stdout | mbrstats -design /dev/stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/engine"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/route"
	"repro/internal/scan"
	"repro/internal/serve/wire"
	"repro/internal/sta"
)

// report is the -json document. The sections mirror the text report; the
// engine shape is shared with the composition server.
type report struct {
	Design     designReport         `json:"design"`
	Registers  registersReport      `json:"registers"`
	Timing     timingReport         `json:"timing"`
	Compat     compatReport         `json:"compat"`
	Clock      clockReport          `json:"clock"`
	Scan       []chainReport        `json:"scan,omitempty"`
	Congestion congestionReport     `json:"congestion"`
	Passes     []passStats          `json:"passes,omitempty"`
	Engines    wire.EngineSummaries `json:"engines,omitempty"`
}

type designReport struct {
	Name      string  `json:"name"`
	Instances int     `json:"instances"`
	Nets      int     `json:"nets"`
	AreaUM2   float64 `json:"areaUM2"`
}

type registersReport struct {
	Total   int            `json:"total"`
	ByWidth map[int]int    `json:"byWidth"`
	ByClass map[string]int `json:"byClass"`
}

type timingReport struct {
	ClockPeriodPS    float64 `json:"clockPeriodPS"`
	WNSPS            float64 `json:"wnsPS"`
	TNSNS            float64 `json:"tnsNS"`
	FailingEndpoints int     `json:"failingEndpoints"`
	TotalEndpoints   int     `json:"totalEndpoints"`
}

type compatReport struct {
	ComposableRegs int            `json:"composableRegs"`
	TotalRegs      int            `json:"totalRegs"`
	Edges          int            `json:"edges"`
	Components     int            `json:"components"`
	Excluded       map[string]int `json:"excluded,omitempty"`
}

type clockReport struct {
	Domains      []domainReport `json:"domains"`
	Buffers      int            `json:"buffers"`
	CapPF        float64        `json:"capPF"`
	WirelengthMM float64        `json:"wirelengthMM"`
}

type domainReport struct {
	Net   string `json:"net"`
	Sinks int    `json:"sinks"`
}

type chainReport struct {
	ID        int  `json:"id"`
	Partition int  `json:"partition"`
	Regs      int  `json:"regs"`
	Ordered   bool `json:"ordered"`
}

type congestionReport struct {
	OverflowEdges  int     `json:"overflowEdges"`
	MaxUtilization float64 `json:"maxUtilization"`
	AvgUtilization float64 `json:"avgUtilization"`
}

func main() {
	var (
		profile    = flag.String("profile", "", "built-in profile: D1..D5")
		scale      = flag.Int("scale", bench.DefaultScale, "profile scale divisor")
		designPath = flag.String("design", "", "design JSON (alternative to -profile)")
		scanPath   = flag.String("scan", "", "scan plan JSON (with -design)")
		passes     = flag.Int("passes", 0, "run this many composition passes and report per-pass engine work")
		jsonOut    = flag.Bool("json", false, "emit one JSON document (wire encodings) instead of text")
	)
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "-scale must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}

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
		spec, ok := bench.ProfileByName(*profile, bench.ProfileOpts{Scale: *scale})
		if !ok {
			fatal(fmt.Errorf("unknown profile %q", *profile))
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

	text := !*jsonOut
	rep := report{Design: designReport{
		Name:      d.Name,
		Instances: d.NumInsts(),
		Nets:      d.NumNets(),
		AreaUM2:   float64(d.TotalArea()) / 1e6,
	}}
	if text {
		fmt.Printf("design %s\n", d.Name)
		fmt.Printf("  core %v, %d instances, %d nets, area %.0f µm²\n",
			d.Core, d.NumInsts(), d.NumNets(), rep.Design.AreaUM2)
	}

	// Registers by width and class.
	regs := d.Registers()
	byWidth := map[int]int{}
	byClass := map[string]int{}
	for _, r := range regs {
		byWidth[r.Bits()]++
		byClass[r.RegCell.Class.Key()]++
	}
	rep.Registers = registersReport{Total: len(regs), ByWidth: byWidth, ByClass: byClass}
	if text {
		fmt.Printf("\nregisters: %d total\n", len(regs))
		var widths []int
		for w := range byWidth {
			widths = append(widths, w)
		}
		sort.Ints(widths)
		for _, w := range widths {
			fmt.Printf("  %d-bit: %d\n", w, byWidth[w])
		}
		var classes []string
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Println("by functional class:")
		for _, c := range classes {
			fmt.Printf("  %-40s %d\n", c, byClass[c])
		}
	}

	// Timing + compatibility.
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	res, err := eng.RunEndpoints()
	if err != nil {
		fatal(err)
	}
	rep.Timing = timingReport{
		ClockPeriodPS:    d.Timing.ClockPeriod,
		WNSPS:            res.WNS,
		TNSNS:            -res.TNS / 1000,
		FailingEndpoints: res.FailingEndpoints,
		TotalEndpoints:   res.TotalEndpoints,
	}
	if text {
		fmt.Printf("\ntiming (ideal clocks, period %.0f ps):\n", d.Timing.ClockPeriod)
		fmt.Printf("  WNS %.1f ps, TNS %.2f ns, failing %d / %d endpoints\n",
			res.WNS, -res.TNS/1000, res.FailingEndpoints, res.TotalEndpoints)
	}

	g := compat.Build(d, eng, plan, compat.DefaultOptions())
	st := g.Stats()
	components := len(partition.ConnectedComponents(len(g.Regs), g.Adj))
	excluded := map[string]int{}
	for why, n := range st.ExcludedByWhy {
		excluded[string(why)] = n
	}
	rep.Compat = compatReport{
		ComposableRegs: st.ComposableRegs,
		TotalRegs:      st.TotalRegs,
		Edges:          st.Edges,
		Components:     components,
		Excluded:       excluded,
	}
	if text {
		fmt.Printf("\ncompatibility graph: %d composable of %d registers, %d edges, %d components\n",
			st.ComposableRegs, st.TotalRegs, st.Edges, components)
		var reasons []string
		for why := range excluded {
			reasons = append(reasons, why)
		}
		sort.Strings(reasons)
		for _, why := range reasons {
			fmt.Printf("  excluded (%s): %d\n", why, excluded[why])
		}
	}

	// Clock domains.
	domains := map[netlist.NetID]int{}
	for _, r := range regs {
		domains[d.ClockNet(r)]++
	}
	var domIDs []netlist.NetID
	for id := range domains {
		domIDs = append(domIDs, id)
	}
	sort.Slice(domIDs, func(i, j int) bool { return domIDs[i] < domIDs[j] })
	cm := cts.Measure(d)
	rep.Clock = clockReport{
		Buffers:      cm.Buffers,
		CapPF:        cm.TotalCapFF / 1000,
		WirelengthMM: float64(cm.WirelengthDBU) / 1e6,
	}
	if text {
		fmt.Println("\nclock domains:")
	}
	for _, id := range domIDs {
		name := "<unclocked>"
		if n := d.Net(id); n != nil {
			name = n.Name
		}
		rep.Clock.Domains = append(rep.Clock.Domains, domainReport{Net: name, Sinks: domains[id]})
		if text {
			fmt.Printf("  %-16s %d sinks\n", name, domains[id])
		}
	}
	if text {
		fmt.Printf("clock network: %d buffers, %.2f pF, %.2f mm\n",
			cm.Buffers, cm.TotalCapFF/1000, float64(cm.WirelengthDBU)/1e6)
	}

	// Scan chains.
	if chains := plan.Chains(); len(chains) > 0 {
		if text {
			fmt.Printf("\nscan: %d chains\n", len(chains))
		}
		for _, c := range chains {
			rep.Scan = append(rep.Scan, chainReport{
				ID: c.ID, Partition: c.Partition, Regs: len(c.Regs), Ordered: c.Ordered,
			})
			if text {
				ord := ""
				if c.Ordered {
					ord = " (ordered)"
				}
				fmt.Printf("  chain %d: partition %d, %d registers%s\n",
					c.ID, c.Partition, len(c.Regs), ord)
			}
		}
	}

	// Congestion.
	m := route.Estimate(d, route.DefaultOptions())
	rep.Congestion = congestionReport{
		OverflowEdges:  m.OverflowEdges(),
		MaxUtilization: m.MaxUtilization(),
		AvgUtilization: m.AvgUtilization(),
	}
	if text {
		fmt.Printf("\ncongestion: %d overflow edges, max util %.2f, avg util %.2f\n",
			m.OverflowEdges(), m.MaxUtilization(), m.AvgUtilization())
	}

	if *passes > 0 {
		rep.Passes, rep.Engines = runPasses(d, plan, eng, *passes, text)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
}

// passStats is one composition pass's accounting: the compatibility graph
// it built, what the clock-tree and congestion engines did to serve the
// pass, and what composition formed. -passes emits one per pass.
type passStats struct {
	Pass int `json:"pass"`

	// Timing engine: how the pass's analysis was served ("full",
	// "structural", "reseed" or "incremental") and the pins it
	// re-evaluated.
	STAKind     string `json:"staKind"`
	STAConePins int    `json:"staConePins"`

	// Compatibility graph.
	Nodes       int `json:"nodes"`
	Edges       int `json:"edges"`
	Components  int `json:"components"`
	PairsTested int `json:"pairsTested"`

	// Composition outcome.
	MBRs               int `json:"mbrs"`
	RegsBefore         int `json:"regsBefore"`
	RegsAfter          int `json:"regsAfter"`
	TruncatedSubgraphs int `json:"truncatedSubgraphs"`
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

// runPasses drives composition passes on the in-memory design, reporting
// the compatibility graph each one builds and what the clock-tree and
// congestion engines do on it. It returns per-pass stats and the final
// engine summaries, where "compat" counts the header's graph and every
// pass's build.
func runPasses(d *netlist.Design, plan *scan.Plan, eng *sta.Engine, passes int, text bool) ([]passStats, wire.EngineSummaries) {
	builds := 1 // the header's graph
	ct := cts.NewEngine(d, cts.DefaultOptions())
	if err := ct.Attach(); err != nil {
		fatal(err)
	}
	rt := route.NewEngine(d, route.DefaultOptions())
	rt.Update() // baseline estimate, so pass deltas measure only the edits
	var out []passStats
	if text {
		fmt.Printf("\ncomposition passes (compat, clock-tree and congestion engines):\n")
	}
	for p := 1; p <= passes; p++ {
		if _, err := eng.RunEndpoints(); err != nil {
			fatal(err)
		}
		t0 := time.Now()
		g := compat.Build(d, eng, plan, compat.DefaultOptions())
		buildTime := time.Since(t0)
		builds++
		cs := g.Stats()
		ss := eng.Stats()
		ps := passStats{
			Pass:        p,
			STAKind:     ss.LastKind,
			STAConePins: ss.LastConePins,
			Nodes:       cs.ComposableRegs,
			Edges:       cs.Edges,
			Components:  len(partition.ConnectedComponents(len(g.Regs), g.Adj)),
			PairsTested: cs.PairsTested,
		}
		if text {
			fmt.Printf("pass %d: %d nodes, %d edges, %d components\n",
				p, cs.ComposableRegs, cs.Edges, ps.Components)
			fmt.Printf("  sta %s: %d pins re-evaluated\n", ss.LastKind, ss.LastConePins)
			fmt.Printf("  pairs tested %d; rejected by func/scan/place/timing: %d/%d/%d/%d\n",
				cs.PairsTested, cs.RejectsByTest[0], cs.RejectsByTest[1],
				cs.RejectsByTest[2], cs.RejectsByTest[3])
			fmt.Printf("  build %.2f ms\n", float64(buildTime)/1e6)
		}
		opts := core.DefaultOptions()
		opts.NamePrefix = fmt.Sprintf("mbrp%d", p)
		opts.ReleaseClocks = ct.ReleaseClocks
		cres, err := core.Compose(d, g, plan, opts)
		if err != nil {
			fatal(err)
		}
		ps.MBRs = len(cres.MBRs)
		ps.RegsBefore = cres.RegsBefore
		ps.RegsAfter = cres.RegsAfter
		ps.TruncatedSubgraphs = cres.TruncatedSubgraphs
		if text {
			fmt.Printf("  composed: %d MBRs, registers %d -> %d (%d truncated subgraphs)\n",
				len(cres.MBRs), cres.RegsBefore, cres.RegsAfter, cres.TruncatedSubgraphs)
		}
		if err := ct.Update(); err != nil {
			fatal(err)
		}
		ts := ct.Stats()
		ps.CTSKind = string(ts.LastKind)
		ps.ReclusteredLeaves = ts.LastReclusteredLeaves
		ps.RepairedAncestors = ts.LastRepairedAncestors
		ps.BuffersAdded = ts.LastBuffersAdded
		ps.BuffersRemoved = ts.LastBuffersRemoved
		ps.CTSFallback = ts.LastFallbackReason
		if text {
			line := fmt.Sprintf("  cts %s: %d leaves re-clustered, %d ancestors repaired, %d clusters reused, buffers +%d/-%d",
				ts.LastKind, ts.LastReclusteredLeaves, ts.LastRepairedAncestors,
				ts.LastReusedClusters, ts.LastBuffersAdded, ts.LastBuffersRemoved)
			if ts.LastFallbackReason != "" {
				line += fmt.Sprintf(" (fallback: %s)", ts.LastFallbackReason)
			}
			fmt.Println(line)
			fmt.Printf("  cts phases: plan %.2f ms, repair %.2f ms, legalize %.2f ms\n",
				float64(ts.LastPlanNS)/1e6, float64(ts.LastRepairNS)/1e6,
				float64(ts.LastLegalizeNS)/1e6)
		}
		pm := ct.Metrics()
		ts = ct.Stats()
		ps.ClockBuffers = pm.Buffers
		ps.ClockCapPF = pm.TotalCapFF / 1000
		ps.ClockWLMM = float64(pm.WirelengthDBU) / 1e6
		if text {
			fmt.Printf("  clock network (cached): %d buffers, %.2f pF, %.2f mm (%d metric fallbacks)\n",
				pm.Buffers, pm.TotalCapFF/1000, float64(pm.WirelengthDBU)/1e6,
				ts.MetricsFallbacks)
		}
		overflow := rt.OverflowEdges()
		rs := rt.Stats()
		ps.RouteKind = rs.LastKind
		ps.OverflowEdges = overflow
		ps.NetsDelta = rs.LastNetsDelta
		ps.TilesTouched = rs.LastTilesTouched
		if text {
			rline := fmt.Sprintf("  route %s: %d overflow edges, %d nets re-contributed, %d grid edges touched",
				rs.LastKind, overflow, rs.LastNetsDelta, rs.LastTilesTouched)
			if rs.LastKind == "rebuild" && rs.LastFallback != "" {
				rline += fmt.Sprintf(" (fallback: %s)", rs.LastFallback)
			}
			fmt.Println(rline)
			fmt.Printf("  route phases: delta %.2f ms, rebuild %.2f ms\n",
				float64(rs.LastDeltaNS)/1e6, float64(rs.LastRebuildNS)/1e6)
		}
		out = append(out, ps)
		if len(cres.MBRs) == 0 {
			if text {
				fmt.Printf("  converged after %d passes (%d compat builds)\n", p, builds)
			}
			break
		}
	}
	ts := ct.Stats()
	rs := rt.Stats()
	ss := eng.Stats()
	if text && len(out) == passes {
		fmt.Printf("  totals: sta %d full, %d structural, %d reseed, %d incremental; compat %d builds; cts %d updates (%d delta, %d rebuilds, %d clean); route %d updates (%d delta, %d rebuilds, %d clean)\n",
			ss.FullBuilds, ss.StructuralDeltas, ss.Reseeds, ss.IncrementalRuns,
			builds,
			ts.Updates, ts.Deltas, ts.Rebuilds, ts.Cleans,
			rs.Updates, rs.Deltas, rs.Rebuilds, rs.Cleans)
	}
	return out, wire.Engines(map[string]engine.Summary{
		"sta":    eng.Summary(),
		"compat": {Updates: builds, Rebuilds: builds, LastKind: "build"},
		"cts":    ct.Summary(),
		"route":  rt.Summary(),
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

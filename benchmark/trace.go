package main

import (
	"fmt"
	"runtime"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/route"
	"repro/internal/sta"
)

// traceWorkload is the per-layer run. It times calls into each layer's
// public functions from this package and checks that what it drove equals
// what the top-level APIs produce:
//
//   - batch layers: flow.Run on a design, then the same design regenerated
//     and driven stage by stage (CTS attach, full STA, compat build,
//     candidate enumeration, partitioning, the per-subgraph ILPs, compose,
//     CTS update/canonicalize), then again with one worker;
//   - measure layers: the six calls of one incremental measurement on
//     engines configured like a served session, fed a seeded edit stream,
//     then the same stream served over HTTP (traceMeasure);
//   - serve workloads also run one loadtest round, whose sessions' engines
//     give the delta/rebuild accounting under the workload's own traffic;
//     batch workloads take it from flow.Run's engines.
func traceWorkload(w workload, seed int64, rep *report) {
	tr := rep.tracer
	per := series{}
	engines := map[string][2]int{} // engine key → {deltas, updates}
	addEngines := func(k string, deltas, updates int) {
		e := engines[k]
		engines[k] = [2]int{e[0] + deltas, e[1] + updates}
	}

	for r := 0; r < minReps; r++ {
		rep.attempted++
		spec := designSpec(w, seed, r)
		fr, ok := traceFlow(tr, rep, spec)
		if !ok {
			continue
		}
		passes := fr.Compose.Runtime
		for _, p := range fr.ExtraPasses {
			passes += p.Runtime
		}
		skewSizing := ms(fr.ComposeTime - passes)
		per.add("flow.skew_sizing_ms", skewSizing)
		for k, s := range fr.Engines {
			addEngines(k, s.Deltas, s.Updates)
		}

		drv, ok := traceDriver(tr, rep, per, spec, fr.Compose)
		if !ok {
			continue
		}
		per.add("trace.coverage_frac", (drv.mirrorMS+skewSizing)/ms(fr.TotalTime))
		w1, ok := traceW1(tr, rep, spec, drv.compose)
		if !ok {
			continue
		}
		per.add("core.commit_ms", w1-drv.candidatesMS-drv.ilpMS)
	}
	for _, name := range []string{"bench.generate", "cts.attach", "sta.full", "sta.full_w1",
		"compat.build", "route.rebuild", "metrics.aggregates", "cts.metrics",
		"core.candidates", "partition.decompose", "ilp.solve", "core.compose",
		"core.compose_w1", "cts.update", "cts.canonicalize"} {
		per[name+"_ms"] = tr.durations(name)
	}
	for _, name := range []string{"sta.full", "compat.build", "core.compose"} {
		per[name+"_allocs"] = tr.allocCounts(name)
	}
	rep.medians(per)

	traceMeasure(tr, rep, w, seed)

	if w.serve {
		engines = map[string][2]int{}
		_, mgr := serveRound(rep, loadtestOptions(w, seed, 0))
		for _, name := range mgr.Names() {
			if s, ok := mgr.Get(name); ok {
				for k, sum := range s.Engines() {
					addEngines(k, sum.Deltas, sum.Updates)
				}
			}
		}
	}
	for key, name := range map[string]string{"sta": "sta", "compat": "compatgraph",
		"cts": "cts", "route": "route", "metrics": "metrics", "compose": "core"} {
		e := engines[key]
		frac := 0.0
		if e[1] > 0 {
			frac = float64(e[0]) / float64(e[1])
		}
		rep.set(name+".delta_frac", frac, e[1])
	}
}

// generate builds a design inside a bench.generate span.
func generate(tr *tracer, rep *report, spec bench.Spec) (*bench.Result, bool) {
	runtime.GC()
	var b *bench.Result
	err := tr.do("bench.generate", func() (err error) {
		b, err = bench.Generate(spec)
		return err
	})
	return b, rep.check("generate", err)
}

// traceFlow runs the paper flow on the rep's design through flow.Run.
func traceFlow(tr *tracer, rep *report, spec bench.Spec) (*flow.Report, bool) {
	b, ok := generate(tr, rep, spec)
	if !ok {
		return nil, false
	}
	var fr *flow.Report
	err := tr.do("flow.run", func() (err error) {
		fr, err = flow.Run(b.Design, b.Plan, flowConfig())
		return err
	})
	if !rep.check("flow.Run", err) {
		return nil, false
	}
	if fr.Compose == nil {
		rep.fail("%s: flow.Run composed nothing", b.Design.Name)
		return nil, false
	}
	return fr, true
}

// driverResult is what the stage-by-stage driver measured on one design.
type driverResult struct {
	compose             *core.Result
	candidatesMS, ilpMS float64
	// mirrorMS is the time of the stages flow.Run itself runs.
	mirrorMS float64
}

// composeOptions are the flow's composition options at a worker count.
func composeOptions(workers int, ce *cts.Engine) core.Options {
	opts := flowConfig().Compose
	opts.Workers = workers
	opts.ReleaseClocks = ce.ReleaseClocks
	return opts
}

// traceDriver regenerates the rep's design and drives the flow's stages
// through each layer's public functions at the flow's worker count. Its
// composition must equal flow.Run's, and the per-subgraph ILPs rebuilt from
// the enumerated candidates must reproduce the composition's objective.
func traceDriver(tr *tracer, rep *report, per series, spec bench.Spec, want *core.Result) (driverResult, bool) {
	var res driverResult
	b, ok := generate(tr, rep, spec)
	if !ok {
		return res, false
	}
	d, plan := b.Design, b.Plan
	root := tr.begin("driver")
	defer tr.end(root)

	d.ResetTouchedLog()
	cfg := flowConfig()
	ce := cts.NewEngine(d, cfg.CTS.Tree)
	ce.SetWorkers(batchWorkers)
	se := sta.New(d)
	se.SetWorkers(batchWorkers)
	rt := route.NewEngine(d, cfg.Route.Est)
	rt.SetWorkers(batchWorkers)
	mt := metrics.New(d)
	if !rep.check("cts attach", tr.do("cts.attach", ce.Attach)) {
		return res, false
	}

	var sres *sta.Results
	fullSTA := func() bool {
		return rep.check("sta", tr.do("sta.full", func() (err error) {
			se.Invalidate()
			sres, err = se.Run()
			return err
		}))
	}
	var g *compat.Graph
	build := func() {
		tr.do("compat.build", func() error {
			g = compat.Build(d, sres, plan, cfg.Compat.Rules)
			return nil
		})
	}

	// Base measurement.
	if !fullSTA() {
		return res, false
	}
	per.add("sta.pins", float64(len(sres.Arrival)))
	build()
	tr.do("cts.metrics", func() error { ce.Metrics(); return nil })
	tr.do("route.rebuild", func() error { rt.OverflowEdges(); return nil })
	tr.do("metrics.aggregates", func() error { mt.Aggregates(); return nil })

	// Composition under ideal clocks.
	se.SetIdealClocks(true)
	if !fullSTA() {
		return res, false
	}
	build()
	per.add("compat.edges", float64(g.NumEdges()))
	opts := composeOptions(batchWorkers, ce)
	est := tr.begin("estimates")
	obj, ok := rebuildILPs(tr, rep, per, d, g, opts, &res)
	tr.end(est)
	if !ok {
		return res, false
	}
	err := tr.do("core.compose", func() (err error) {
		res.compose, err = core.Compose(d, g, plan, opts)
		return err
	})
	if !rep.check("compose", err) {
		return res, false
	}
	se.SetIdealClocks(false)
	c := res.compose
	per.add("core.mbrs", float64(len(c.MBRs)))
	per.add("core.sched_steals", float64(c.SchedSteals))
	per.add("core.peak_live_shards", float64(c.PeakLiveShards))
	if obj != c.ObjectiveSum {
		rep.fail("%s: rebuilt ILPs sum to objective %v, compose reports %v", d.Name, obj, c.ObjectiveSum)
	}
	sameCompose(rep, d.Name, "driver compose", c, "flow.Run", want)

	// Fold the merges into the trees and take the final measurement.
	if !rep.check("cts update", tr.do("cts.update", ce.Update)) ||
		!rep.check("cts canonicalize", tr.do("cts.canonicalize", ce.Canonicalize)) ||
		!fullSTA() {
		return res, false
	}
	tr.do("cts.metrics", func() error { ce.Metrics(); return nil })
	res.mirrorMS = tr.childSum(root, "estimates")
	return res, true
}

// sameCompose fails unless two compositions agree on register count, MBR
// count and objective.
func sameCompose(rep *report, design, gotName string, got *core.Result, wantName string, want *core.Result) {
	if got.RegsAfter != want.RegsAfter || len(got.MBRs) != len(want.MBRs) || got.ObjectiveSum != want.ObjectiveSum {
		rep.fail("%s: %s (%d regs, %d MBRs, objective %v) differs from %s (%d, %d, %v)",
			design, gotName, got.RegsAfter, len(got.MBRs), got.ObjectiveSum,
			wantName, want.RegsAfter, len(want.MBRs), want.ObjectiveSum)
	}
}

// rebuildILPs enumerates the candidates (core.InspectCandidates), partitions
// the graph as composition does, and solves each subgraph's set-partitioning
// ILP rebuilt from those candidates, pruning multi-member candidates priced
// at or above keeping their members apart exactly as composition does. It
// returns the objective summed in subgraph order.
func rebuildILPs(tr *tracer, rep *report, per series, d *netlist.Design, g *compat.Graph, opts core.Options, res *driverResult) (float64, bool) {
	var cands []core.CandidateInfo
	err := tr.do("core.candidates", func() (err error) {
		cands, err = core.InspectCandidates(d, g, opts)
		return err
	})
	if !rep.check("candidates", err) {
		return 0, false
	}
	res.candidatesMS = tr.last("core.candidates")
	var subs [][]int
	tr.do("partition.decompose", func() error {
		subs = partition.Decompose(len(g.Regs), g.Adj,
			func(n int) geom.Point { return g.Regs[n].ClockPos }, opts.MaxSubgraphNodes)
		return nil
	})
	per.add("core.candidates", float64(len(cands)))
	per.add("partition.subgraphs", float64(len(subs)))

	subOf := make([]int, len(g.Regs))
	local := make([]int, len(g.Regs))
	for si, nodes := range subs {
		for i, n := range nodes {
			subOf[n], local[n] = si, i
		}
	}
	insts := make([]ilp.CoverInstance, len(subs))
	for si, nodes := range subs {
		insts[si] = ilp.CoverInstance{NumElems: len(nodes), NodeLimit: opts.ILPNodeLimit}
	}
	for _, c := range cands {
		if len(c.Members) > 1 && c.Weight >= float64(len(c.Members))-1e-12 {
			continue
		}
		members := make([]int, len(c.Members))
		for i, id := range c.Members {
			members[i] = local[g.NodeOf(id)]
		}
		si := subOf[g.NodeOf(c.Members[0])]
		insts[si].Sets = append(insts[si].Sets, ilp.CoverSet{Members: members, Weight: c.Weight})
	}

	var obj float64
	var nodes int
	err = tr.do("ilp.solve", func() error {
		for si := range insts {
			cr, err := ilp.SolveCover(insts[si])
			if err != nil {
				return fmt.Errorf("subgraph %d: %w", si, err)
			}
			obj += cr.Objective
			nodes += cr.Nodes
		}
		return nil
	})
	if !rep.check(d.Name+": ilp", err) {
		return 0, false
	}
	res.ilpMS = tr.last("ilp.solve")
	per.add("ilp.nodes", float64(nodes))
	return obj, true
}

// traceW1 regenerates the rep's design once more and composes it with one
// worker — the other side of the first worker sweep on this host. The
// result must equal the two-worker composition. It returns the compose
// time in ms.
func traceW1(tr *tracer, rep *report, spec bench.Spec, want *core.Result) (float64, bool) {
	b, ok := generate(tr, rep, spec)
	if !ok {
		return 0, false
	}
	d, plan := b.Design, b.Plan
	root := tr.begin("driver_w1")
	defer tr.end(root)
	d.ResetTouchedLog()
	cfg := flowConfig()
	ce := cts.NewEngine(d, cfg.CTS.Tree)
	ce.SetWorkers(1)
	if !rep.check("cts attach", tr.do("cts.attach", ce.Attach)) {
		return 0, false
	}
	se := sta.New(d)
	se.SetWorkers(1)
	se.SetIdealClocks(true)
	var sres *sta.Results
	err := tr.do("sta.full_w1", func() (err error) {
		sres, err = se.Run()
		return err
	})
	if !rep.check("sta", err) {
		return 0, false
	}
	var g *compat.Graph
	tr.do("compat.build", func() error {
		g = compat.Build(d, sres, plan, cfg.Compat.Rules)
		return nil
	})
	var c *core.Result
	err = tr.do("core.compose_w1", func() (err error) {
		c, err = core.Compose(d, g, plan, composeOptions(1, ce))
		return err
	})
	if !rep.check("compose", err) {
		return 0, false
	}
	sameCompose(rep, d.Name, "one-worker compose", c, "two workers", want)
	return tr.last("core.compose_w1"), true
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"

	"repro/internal/compatgraph"
	"repro/internal/cts"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/sta"
)

// sessionConfig is the served session of the traced comparison, configured
// like the loadtest harness's sessions: clock-tree re-center hysteresis and
// a raised compat delta threshold keep small edit streams on the engines'
// delta paths.
var sessionConfig = serve.SessionConfig{
	Workers:              serveWorkers,
	RecenterThresholdDBU: 4000,
	CompatMaxDeltaFrac:   0.5,
}

// measureEngines are the retained engines one served measurement drives,
// built and configured the way serve.SessionConfig configures a session's.
type measureEngines struct {
	d  *netlist.Design
	se *sta.Engine
	cg *compatgraph.Engine
	ce *cts.Engine
	rt *route.Engine
	mt *metrics.Tracker
}

func newMeasureEngines(d *netlist.Design, plan *scan.Plan) (*measureEngines, error) {
	cfg := flow.DefaultConfig()
	d.ResetTouchedLog()
	e := &measureEngines{
		d:  d,
		se: sta.New(d),
		cg: compatgraph.New(d, plan, compatgraph.Options{
			Compat:       cfg.Compat.Rules,
			Workers:      sessionConfig.Workers,
			MaxDeltaFrac: sessionConfig.CompatMaxDeltaFrac,
		}),
		mt: metrics.New(d),
		rt: route.NewEngine(d, cfg.Route.Est),
	}
	tree := cfg.CTS.Tree
	tree.RecenterThresholdDBU = sessionConfig.RecenterThresholdDBU
	e.ce = cts.NewEngine(d, tree)
	e.se.SetWorkers(sessionConfig.Workers)
	e.rt.SetWorkers(sessionConfig.Workers)
	e.ce.SetWorkers(sessionConfig.Workers)
	e.cg.SetTimingFeed(e.se)
	return e, e.ce.Attach()
}

// measure repeats one incremental measurement — the flow's six calls —
// inside spans, recording each call's time and work counts.
func (e *measureEngines) measure(tr *tracer, per series) (flow.Metrics, error) {
	root := tr.begin("measure")
	defer tr.end(root)
	nets, leaves := e.rt.Stats().NetsDelta, e.ce.Stats().ReclusteredLeaves
	if err := tr.do("cts.update", e.ce.Update); err != nil {
		return flow.Metrics{}, err
	}
	var res *sta.Results
	err := tr.do("sta.incremental", func() (err error) {
		res, err = e.se.Run()
		return err
	})
	if err != nil {
		return flow.Metrics{}, err
	}
	var m flow.Metrics
	tr.do("compatgraph.update", func() error {
		m.CompRegs = len(e.cg.Update(res).Regs)
		return nil
	})
	var cm cts.Metrics
	tr.do("cts.metrics", func() error { cm = e.ce.Metrics(); return nil })
	tr.do("route.overflow", func() error { m.OverflowEdges = e.rt.OverflowEdges(); return nil })
	var dm metrics.Aggregates
	tr.do("metrics.delta", func() error { dm = e.mt.Aggregates(); return nil })

	for _, name := range []string{"cts.update", "sta.incremental", "compatgraph.update",
		"cts.metrics", "route.overflow", "metrics.delta"} {
		per.add(name, tr.last(name))
	}
	per.add("sta.cone_pins", float64(e.se.Stats().LastConePins))
	per.add("compatgraph.pairs_tested", float64(e.cg.Stats().LastPairsTested))
	per.add("route.nets_delta", float64(e.rt.Stats().NetsDelta-nets))
	per.add("cts.reclustered_leaves", float64(e.ce.Stats().ReclusteredLeaves-leaves))

	// The same fields, units and order as the flow's own measurement.
	m.AreaUM2 = float64(dm.AreaDBU2) / 1e6
	m.Cells, m.TotalRegs = dm.Cells, dm.Regs
	m.ClkBufs, m.ClkCapPF = cm.Buffers, cm.TotalCapFF/1000
	m.TNSNS, m.WNSPS = -res.TNS/1000, res.WNS
	m.FailingEndpoints, m.TotalEndpoints = res.FailingEndpoints, res.TotalEndpoints
	m.WLClkMM, m.WLSigMM = float64(cm.WirelengthDBU)/1e6, float64(dm.SignalWLDBU)/1e6
	return m, nil
}

// apply applies an edit batch to the driver's design and timing engine
// through the same netlist calls a session's Apply makes.
func (e *measureEngines) apply(edits []flow.Edit) error {
	for _, ed := range edits {
		var name string
		switch {
		case ed.Move != nil:
			name = ed.Move.Inst
		case ed.Resize != nil:
			name = ed.Resize.Inst
		case ed.Skew != nil:
			name = ed.Skew.Inst
		}
		in := e.d.InstByName(name)
		if in == nil {
			return fmt.Errorf("no instance %q", name)
		}
		switch {
		case ed.Move != nil:
			e.d.MoveInst(in, geom.Point{X: *ed.Move.X, Y: *ed.Move.Y})
		case ed.Resize != nil:
			if err := e.d.ResizeRegister(in, e.d.Lib.CellByName(ed.Resize.Cell)); err != nil {
				return err
			}
		case ed.Skew != nil:
			e.se.SetSkew(in.ID, ed.Skew.SkewPS)
		}
	}
	return nil
}

// traceMeasure drives the measure layers on the workload's served design
// with a seeded edit stream, then serves the same stream over HTTP. The
// driver's final metrics must equal the served session's.
func traceMeasure(tr *tracer, rep *report, w workload, seed int64) {
	b, ok := generate(tr, rep, profileSpec(w))
	if !ok {
		return
	}
	e, err := newMeasureEngines(b.Design, b.Plan)
	if !rep.check("measure engines", err) {
		return
	}
	stream := editStream(b.Design, seed, w.traceBatches)
	per := series{}
	var final flow.Metrics
	if _, err := e.measure(tr, series{}); !rep.check("warm-up measure", err) {
		return
	}
	for _, edits := range stream {
		rep.attempted++
		if !rep.check("apply", e.apply(edits)) {
			return
		}
		if final, err = e.measure(tr, per); !rep.check("measure", err) {
			return
		}
	}
	measures := tr.durations("measure")[1:]
	rep.median("measure.driver_p50_ms", measures)
	rep.set("measure.driver_p99_ms", percentile(measures, 0.99), len(measures))
	rep.median("measure.driver_allocs", tr.allocCounts("measure")[1:])
	for _, name := range []string{"cts.update", "sta.incremental", "compatgraph.update",
		"cts.metrics", "route.overflow", "metrics.delta"} {
		rep.median(name+"_p50_ms", per[name])
		rep.set(name+"_p99_ms", percentile(per[name], 0.99), len(per[name]))
	}
	for _, name := range []string{"sta.cone_pins", "compatgraph.pairs_tested", "route.nets_delta", "cts.reclustered_leaves"} {
		rep.median(name, per[name])
	}
	// The driver's design is dead from here on; collect it before the
	// served session generates its own copy.
	runtime.GC()

	served, canon, err := serveStream(w, stream)
	rep.attempted += len(stream)
	if !rep.check("served stream", err) {
		return
	}
	if canon != final.Canonical() {
		rep.fail("driver's final metrics differ from the served session's:\ndriver:\n%sserved:\n%s", final.Canonical(), canon)
	}
	p50 := median(served)
	rep.set("serve.measure_p50_ms", p50, len(served))
	rep.set("serve.overhead_ms", p50-median(measures), len(served))
}

// serveStream serves the edit stream to one session of an in-process
// server, a measure after every batch, and returns the handler times of
// the measures after the warm-up and the final measurement's canonical
// bytes.
func serveStream(w workload, stream [][]flow.Edit) ([]float64, string, error) {
	log := &serverLog{next: serve.Handler(serve.NewManager(serve.Options{}))}
	ts := httptest.NewServer(log)
	defer ts.Close()
	const name = "trace"
	path := ts.URL + "/v1/sessions/" + name
	create := serve.CreateRequest{Name: name, Source: serve.Source{Profile: w.profile, Scale: w.scale}, Config: sessionConfig}
	if err := post(ts.URL+"/v1/sessions", create, &serve.CreateResponse{}); err != nil {
		return nil, "", err
	}
	var m serve.MeasureResponse
	if err := post(path+"/measure", struct{}{}, &m); err != nil {
		return nil, "", err
	}
	for i, edits := range stream {
		if err := post(path+"/edits", serve.EditsRequest{Edits: edits}, &serve.EditsResponse{}); err != nil {
			return nil, "", fmt.Errorf("batch %d: %w", i, err)
		}
		if err := post(path+"/measure", struct{}{}, &m); err != nil {
			return nil, "", fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return log.measures(), m.Canonical, nil
}

func post(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// editStream is a seeded skew/move/resize stream shaped like the loadtest's
// parametric streams: batches of ten edits over a pool of ten neighboring
// registers (a contiguous window in Morton order), each batch
// skew-dominated with at most one move (±400 DBU around the register's
// original position) or resize (to a same-width drive alternate).
func editStream(d *netlist.Design, seed int64, batches int) [][]flow.Edit {
	type reg struct {
		name  string
		pos   geom.Point
		cells []string
	}
	var regs []reg
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.RegCell == nil {
			return
		}
		r := reg{name: in.Name, pos: in.Pos, cells: []string{in.RegCell.Name}}
		for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
			if c != in.RegCell {
				r.cells = append(r.cells, c.Name)
			}
		}
		regs = append(regs, r)
	})
	sort.Slice(regs, func(i, j int) bool {
		mi, mj := morton(regs[i].pos), morton(regs[j].pos)
		if mi != mj {
			return mi < mj
		}
		return regs[i].name < regs[j].name
	})
	const pool, batchEdits = 10, 10
	regs = regs[:min(pool, len(regs))]

	rng := rand.New(rand.NewSource(seed))
	stream := make([][]flow.Edit, batches)
	for b := range stream {
		structural := rng.Intn(batchEdits)
		for e := 0; e < batchEdits; e++ {
			r := regs[rng.Intn(len(regs))]
			var ed flow.Edit
			switch {
			case e == structural && rng.Intn(2) == 0:
				ed = flow.MoveTo(r.name, r.pos.X+int64(rng.Intn(801)-400), r.pos.Y+int64(rng.Intn(801)-400))
			case e == structural && len(r.cells) > 1:
				ed = flow.Resize(r.name, r.cells[rng.Intn(len(r.cells))])
			default:
				ed = flow.Skew(r.name, float64(rng.Intn(81)-40))
			}
			stream[b] = append(stream[b], ed)
		}
	}
	return stream
}

// morton interleaves the coarse (~1 µm) bits of a position, so sorting by
// it walks the core along a locality-preserving curve.
func morton(p geom.Point) uint64 {
	x, y := uint64(p.X)>>10, uint64(p.Y)>>10
	var m uint64
	for b := 0; b < 32; b++ {
		m |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
	}
	return m
}

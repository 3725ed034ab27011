// Package loadtest drives cmd/mbrserved's HTTP API with concurrent
// deterministic edit streams and checks the service-level guarantees:
//
//   - Determinism: each stream's sequence of measurement bytes (the
//     canonical metric serialization) must equal a single-threaded local
//     flow.Session replay of the same op sequence — the server under
//     concurrent multi-tenant load serves exactly the bytes the library
//     produces in isolation.
//   - Zero steady-state rebuilds: outside explicit structural windows
//     (merges, splits, compose/decompose rounds — which legitimately pay
//     for a rebuild on the next engine run), every op must stay on every
//     retained engine's delta path — the per-response engine summaries'
//     rebuild counters must not advance.
//   - Liveness under readers: concurrent info/snapshot readers share each
//     session's read lock and must all succeed while writers stream.
//
// Streams are generated from a seeded PRNG over the profile's register
// landscape (regenerated locally — profile generation is deterministic),
// so the same Options always replay the same traffic. The ECO profile
// additionally mirrors its own stream on a scratch local session while
// generating it, so merge/split candidates are probed against the exact
// state the server will be in (failed probes are side-effect free and
// simply dropped from the stream).
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// Options configures a load run.
type Options struct {
	// BaseURL targets a running server; empty starts an in-process one.
	BaseURL string `json:"baseURL,omitempty"`
	// Profile and Scale pick the benchmark design every session loads.
	Profile string `json:"profile"`
	Scale   int    `json:"scale"`
	// Sessions is the number of concurrent tenant streams.
	Sessions int `json:"sessions"`
	// Batches per session; BatchEdits edits per batch.
	Batches    int `json:"batches"`
	BatchEdits int `json:"batchEdits"`
	// MeasureEvery inserts a measurement after every n-th batch.
	MeasureEvery int `json:"measureEvery"`
	// Readers is the number of concurrent info/snapshot reader goroutines.
	Readers int `json:"readers"`
	// Workers is the per-session engine worker-pool bound.
	Workers int `json:"workers,omitempty"`
	// Seed roots the per-stream PRNGs.
	Seed int64 `json:"seed"`
	// PoolSize is how many registers each stream edits (its ECO
	// neighborhood). Small pools keep each stream's edits, and with them
	// the retained engines' dirty sets, local. 0 = 10.
	PoolSize int `json:"poolSize,omitempty"`
	// ComposeAtEnd runs one composition pass plus a final measurement per
	// session after the steady-state window closes (parametric profile).
	ComposeAtEnd bool `json:"composeAtEnd"`
	// ECO switches stream generation to the ECO-replay profile: parametric
	// batches interleaved with explicit merge and split edits plus server
	// compose and decompose rounds, closed by a compose + restore finale —
	// the full bank/debank loop under multi-tenant load.
	ECO bool `json:"eco,omitempty"`
	// ECOEvery is how many parametric batches separate consecutive ECO
	// structural rounds (merge, split, compose, decompose — cycled in that
	// order). 0 = 4.
	ECOEvery int `json:"ecoEvery,omitempty"`
	// OracleSessions bounds how many streams get the (expensive) local
	// single-threaded replay oracle; 0 = all of them.
	OracleSessions int `json:"oracleSessions,omitempty"`
}

// DefaultOptions sizes a run that finishes in CI seconds yet still streams
// thousands of edits across concurrent sessions.
func DefaultOptions() Options {
	return Options{
		Profile:      "D1",
		Scale:        40,
		Sessions:     4,
		Batches:      60,
		BatchEdits:   10,
		MeasureEvery: 1,
		Readers:      3,
		Seed:         1,
		ComposeAtEnd: true,
	}
}

// DefaultECOOptions sizes the ECO-replay profile: fewer, shorter streams
// (each op sequence is heavier — compose and decompose rounds run the full
// engine stack) with every structural round kind exercised at least once
// per stream.
func DefaultECOOptions() Options {
	return Options{
		Profile:      "D1",
		Scale:        40,
		Sessions:     2,
		Batches:      16,
		BatchEdits:   8,
		MeasureEvery: 1,
		Readers:      2,
		Seed:         1,
		PoolSize:     16,
		ECO:          true,
		ECOEvery:     4,
	}
}

// recenterThresholdDBU is the clock-tree re-center hysteresis every
// harness session (and its local oracle replay) runs with. A register move
// or resize re-plans only its own clock domain (the other domains reuse
// their retained plans), but without hysteresis that re-plan moves every
// buffer of the domain a few DBU, shifting clock arrivals — and hence
// slacks — across the whole domain. Holding membership-stable buffers put
// confines the ripple, and with it each measure's clock-arrival and timing
// re-propagation, to the touched clusters.
// 4000 DBU (~4µm) absorbs the drift a small edit pool produces while
// still re-centering after genuine spatial shifts. The compatibility graph
// needs no setting: measures never update it, and each compose site builds
// it from scratch under ideal clocks.
const recenterThresholdDBU = 4000

// ecoDecomposeConfig is the decompose round every ECO stream issues: a
// small budget of the worst-slack MBRs, with a threshold that admits any
// constrained register (only unconstrained +Inf cones are exempt).
func ecoDecomposeConfig() flow.DecomposeConfig {
	return flow.DecomposeConfig{Budget: 4, SlackThresholdPS: 1e9}
}

// sessionConfig is the one config every harness session is created with;
// the oracle replay mirrors it so both run identical engine behavior.
func sessionConfig(o Options) serve.SessionConfig {
	return serve.SessionConfig{
		Workers:              o.Workers,
		RecenterThresholdDBU: recenterThresholdDBU,
	}
}

// Result is the run's outcome and counters.
type Result struct {
	Sessions     int     `json:"sessions"`
	Edits        int64   `json:"edits"`
	Measures     int64   `json:"measures"`
	Composes     int64   `json:"composes"`
	Decomposes   int64   `json:"decomposes"`
	ReaderHits   int64   `json:"readerHits"`
	ElapsedMS    float64 `json:"elapsedMS"`
	EditsPerSec  float64 `json:"editsPerSec"`
	MeasureP50MS float64 `json:"measureP50MS"`
	MeasureP99MS float64 `json:"measureP99MS"`
	// MeasureByOp breaks the measure latencies down by the op before
	// each measure: "edits" (a parametric batch), "merge", "split",
	// "compose", "decompose" or "restore". It shows which structural ops
	// make up the latency tail.
	MeasureByOp map[string]OpLatency `json:"measureByOp,omitempty"`
	// SteadyRebuilds counts retained-engine rebuild-counter increments
	// observed outside structural windows. The service guarantee is 0.
	SteadyRebuilds int64 `json:"steadyRebuilds"`
	// STARebuilds is the most timing-graph builds any session's STA engine
	// reported, structural windows included: 1 when merges, splits,
	// composes and decomposes were all patched into the first build.
	STARebuilds int64 `json:"staRebuilds"`
	// MergeOps/SplitOps count the explicit merge and split edits the ECO
	// streams carried (zero in the parametric profile).
	MergeOps int `json:"mergeOps,omitempty"`
	SplitOps int `json:"splitOps,omitempty"`
	// OracleStreams is how many streams were replayed locally; every one
	// matched byte-for-byte (a mismatch fails the run).
	OracleStreams int                `json:"oracleStreams"`
	Stats         serve.ManagerStats `json:"stats"`
}

// OpLatency summarizes the latencies of the measures that followed one
// kind of op.
type OpLatency struct {
	N     int     `json:"n"`
	P50MS float64 `json:"p50MS"`
	P90MS float64 `json:"p90MS"`
}

// Stream op kinds: the session-level operations a stream sequences.
const (
	opEdits     = "edits"
	opMeasure   = "measure"
	opCompose   = "compose"
	opDecompose = "decompose"
	opRestore   = "restore"
)

// streamOp is one op of a session's deterministic sequence. Structural
// ops (merge/split edit batches, compose, decompose, restore) open an
// exclusion window in the rebuild accounting: the retained engines
// legitimately pay one rebuild on their next run, so counter increments
// re-baseline instead of counting until the next measure closes the
// window.
type streamOp struct {
	kind       string
	edits      []flow.Edit
	decompose  flow.DecomposeConfig
	structural bool
}

// label names the op for Result.MeasureByOp: its kind, or the edit's
// kind for a structural edit op.
func (op streamOp) label() string {
	if op.kind == opEdits && op.structural && len(op.edits) == 1 {
		return op.edits[0].Op()
	}
	return op.kind
}

// measureLat is one measure's latency and the label of the op before it.
type measureLat struct {
	after string
	ms    float64
}

// stream is one session's deterministic op sequence, generated up front so
// the HTTP run and the local oracle replay the same ops.
type stream struct {
	name   string
	ops    []streamOp
	merges int
	splits int
}

// reg is one movable register of the reference design.
type reg struct {
	name     string
	pos      [2]int64
	cells    []string // same class+width drive alternates, current first
	skewable bool
}

// Run executes the load test. Any guarantee violation is returned as an
// error; the Result carries the counters either way when the run got far
// enough to have any.
func Run(o Options) (*Result, error) {
	if o.Sessions <= 0 || o.Batches <= 0 || o.BatchEdits <= 0 {
		return nil, fmt.Errorf("loadtest: Sessions, Batches, BatchEdits must be > 0")
	}
	if o.MeasureEvery <= 0 {
		o.MeasureEvery = 1
	}

	base := o.BaseURL
	if base == "" {
		mgr := serve.NewManager(serve.Options{MaxSessions: o.Sessions + 1})
		ts := httptest.NewServer(serve.Handler(mgr))
		defer ts.Close()
		base = ts.URL
	}
	c := &client{base: base, hc: &http.Client{Timeout: 120 * time.Second}}

	streams := make([]*stream, o.Sessions)
	if o.ECO {
		for i := range streams {
			st, err := genStreamECO(fmt.Sprintf("s%02d", i), o, int64(i))
			if err != nil {
				return nil, fmt.Errorf("loadtest: generate ECO stream %d: %w", i, err)
			}
			streams[i] = st
		}
	} else {
		regs, err := referenceRegs(o.Profile, o.Scale)
		if err != nil {
			return nil, err
		}
		for i := range streams {
			streams[i] = genStream(fmt.Sprintf("s%02d", i), regs, o, int64(i))
		}
	}

	res := &Result{Sessions: o.Sessions}
	for _, st := range streams {
		res.MergeOps += st.merges
		res.SplitOps += st.splits
	}
	t0 := time.Now()

	// Writers: one goroutine per session streams its ops and checks the
	// zero-rebuild guarantee from the per-response engine summaries.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []measureLat
		canon     = make([][]string, o.Sessions)
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	for i, st := range streams {
		wg.Add(1)
		go func(idx int, st *stream) {
			defer wg.Done()
			lats, cs, rebuilds, staBuilds, err := c.runStream(st, o)
			mu.Lock()
			latencies = append(latencies, lats...)
			canon[idx] = cs
			res.SteadyRebuilds += rebuilds
			res.STARebuilds = max(res.STARebuilds, staBuilds)
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("loadtest: stream %s: %w", st.name, err))
			}
		}(i, st)
	}

	// Readers: hammer info/snapshot on random sessions until writers stop.
	var readerWG sync.WaitGroup
	for r := 0; r < o.Readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(o.Seed ^ int64(0x5eed<<8) ^ int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				name := streams[rng.Intn(len(streams))].name
				hits, err := c.read(name)
				mu.Lock()
				res.ReaderHits += hits
				mu.Unlock()
				if err != nil {
					fail(fmt.Errorf("loadtest: reader: %w", err))
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(done)
	readerWG.Wait()
	res.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000

	if firstErr != nil {
		return res, firstErr
	}
	if res.SteadyRebuilds != 0 {
		return res, fmt.Errorf("loadtest: %d retained-engine rebuilds in the steady-state window (want 0)",
			res.SteadyRebuilds)
	}

	// Determinism oracle: replay each stream on a fresh single-threaded
	// local session and require byte-identical measurement sequences.
	oracle := o.OracleSessions
	if oracle <= 0 || oracle > len(streams) {
		oracle = len(streams)
	}
	for i := 0; i < oracle; i++ {
		want, err := replayLocal(streams[i], o)
		if err != nil {
			return res, fmt.Errorf("loadtest: oracle replay %s: %w", streams[i].name, err)
		}
		if len(want) != len(canon[i]) {
			return res, fmt.Errorf("loadtest: oracle %s: %d measures, server saw %d",
				streams[i].name, len(want), len(canon[i]))
		}
		for j := range want {
			if want[j] != canon[i][j] {
				return res, fmt.Errorf("loadtest: determinism violation: stream %s measure %d differs from local replay:\nserver:\n%slocal:\n%s",
					streams[i].name, j, canon[i][j], want[j])
			}
		}
	}
	res.OracleStreams = oracle

	// Counters and latency percentiles.
	stats, err := c.stats()
	if err != nil {
		return res, err
	}
	res.Stats = *stats
	res.Edits = stats.Edits
	res.Measures = stats.Measures
	res.Composes = stats.Composes
	res.Decomposes = stats.Decomposes
	if res.ElapsedMS > 0 {
		res.EditsPerSec = float64(res.Edits) / (res.ElapsedMS / 1000)
	}
	all := make([]float64, len(latencies))
	byOp := map[string][]float64{}
	for i, l := range latencies {
		all[i] = l.ms
		byOp[l.after] = append(byOp[l.after], l.ms)
	}
	sort.Float64s(all)
	res.MeasureP50MS = percentile(all, 0.50)
	res.MeasureP99MS = percentile(all, 0.99)
	res.MeasureByOp = make(map[string]OpLatency, len(byOp))
	for op, ms := range byOp {
		sort.Float64s(ms)
		res.MeasureByOp[op] = OpLatency{N: len(ms), P50MS: percentile(ms, 0.50), P90MS: percentile(ms, 0.90)}
	}
	return res, nil
}

// referenceRegs regenerates the profile locally and harvests its movable
// registers: the landscape both the stream generator and the server's
// sessions see, since profile generation is deterministic.
func referenceRegs(profile string, scale int) ([]reg, error) {
	spec, ok := bench.ProfileByName(profile, bench.ProfileOpts{Scale: scale})
	if !ok {
		return nil, fmt.Errorf("loadtest: unknown profile %q", profile)
	}
	bres, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	d := bres.Design
	var regs []reg
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.RegCell == nil {
			return
		}
		r := reg{name: in.Name, pos: [2]int64{in.Pos.X, in.Pos.Y}, skewable: true}
		for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
			if c.Name == in.RegCell.Name {
				r.cells = append([]string{c.Name}, r.cells...)
			} else {
				r.cells = append(r.cells, c.Name)
			}
		}
		regs = append(regs, r)
	})
	// Morton order: a contiguous window is a spatial neighborhood, so a
	// stream's edits land on few clock-tree leaves. A move or resize
	// changes its leaf buffer's load and with it every sibling sink's
	// clock arrival; spatially scattered pools would spread that ripple
	// over many leaves.
	sort.Slice(regs, func(i, j int) bool {
		mi, mj := morton(regs[i].pos), morton(regs[j].pos)
		if mi != mj {
			return mi < mj
		}
		return regs[i].name < regs[j].name
	})
	if len(regs) == 0 {
		return nil, fmt.Errorf("loadtest: profile %s has no movable registers", profile)
	}
	return regs, nil
}

// genStream builds one session's deterministic parametric op sequence
// over a contiguous pool of PoolSize registers (offset per stream) —
// the localized neighborhood an interactive ECO session would work. Each
// batch is skew-dominated with at most one move or resize: skews change a
// single register's own slack, while a move/resize also re-loads its
// clock-tree leaf and ripples arrivals across the sibling sinks, so the
// move rate bounds how many registers' slacks each measure re-propagates.
// Moves jitter a few hundred DBU around the register's base position
// (small against cluster pitch, so leaf membership stays stable), resizes
// walk the same-width drive alternates, skews stay inside ±40ps.
func genStream(name string, regs []reg, o Options, idx int64) *stream {
	rng := rand.New(rand.NewSource(o.Seed + 7919*idx))
	pool := o.PoolSize
	if pool <= 0 {
		pool = 10
	}
	if pool > len(regs) {
		pool = len(regs)
	}
	start := int(idx) * pool % len(regs)
	window := make([]reg, 0, pool)
	for i := 0; i < pool; i++ {
		window = append(window, regs[(start+i)%len(regs)])
	}
	regs = window
	st := &stream{name: name}
	for b := 0; b < o.Batches; b++ {
		batch := make([]flow.Edit, 0, o.BatchEdits)
		structural := rng.Intn(o.BatchEdits) // position of the batch's one move/resize
		for e := 0; e < o.BatchEdits; e++ {
			r := regs[rng.Intn(len(regs))]
			switch {
			case e == structural && rng.Intn(2) == 0:
				batch = append(batch, flow.MoveTo(r.name,
					r.pos[0]+int64(rng.Intn(801)-400),
					r.pos[1]+int64(rng.Intn(801)-400)))
			case e == structural && len(r.cells) > 1:
				batch = append(batch, flow.Resize(r.name, r.cells[rng.Intn(len(r.cells))]))
			default:
				batch = append(batch, flow.Skew(r.name, float64(rng.Intn(81)-40)))
			}
		}
		st.ops = append(st.ops, streamOp{kind: opEdits, edits: batch})
		if (b+1)%o.MeasureEvery == 0 || b == o.Batches-1 {
			st.ops = append(st.ops, streamOp{kind: opMeasure})
		}
	}
	if o.ComposeAtEnd {
		// Composition legitimately pays for structural work (merges); its
		// window is excluded from the zero-rebuild accounting.
		st.ops = append(st.ops,
			streamOp{kind: opCompose, structural: true},
			streamOp{kind: opMeasure})
	}
	return st
}

// genStreamECO builds one session's bank/debank ECO stream: parametric
// batches interleaved with explicit merge and split edits plus server-side
// compose and decompose rounds, closed by a compose + restore finale. The
// generator mirrors its own stream op-for-op on a scratch local session,
// so merge/split candidates are probed against the exact design state the
// server will be in when the op arrives — a probe the scratch session
// rejects is side-effect free (validate-then-commit) and simply dropped
// from the stream. Every structural round is followed by a measurement,
// both for the determinism oracle and so the rebuild accounting can
// re-baseline and close the exclusion window.
func genStreamECO(name string, o Options, idx int64) (*stream, error) {
	rng := rand.New(rand.NewSource(o.Seed + 7919*idx))
	pool := o.PoolSize
	if pool <= 0 {
		pool = 10
	}
	ecoEvery := o.ECOEvery
	if ecoEvery <= 0 {
		ecoEvery = 4
	}

	fs, err := openLocal(o)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	if _, err := fs.Measure(); err != nil { // mirror the server's warmup
		return nil, err
	}
	d := fs.Design()

	st := &stream{name: name}
	// emit applies the op to the scratch mirror and appends it; generation
	// fails loudly rather than let the stream diverge from the mirror.
	emit := func(op streamOp) error {
		if err := applyOpLocal(fs, op); err != nil {
			return fmt.Errorf("%s op %d (%s): %w", name, len(st.ops), op.kind, err)
		}
		st.ops = append(st.ops, op)
		return nil
	}
	// tryEdit probes one structural edit. A rejected edit leaves the
	// scratch session untouched, so skipping it keeps mirror and stream in
	// lockstep.
	tryEdit := func(e flow.Edit) bool {
		if _, err := fs.Apply([]flow.Edit{e}); err != nil {
			return false
		}
		st.ops = append(st.ops, streamOp{kind: opEdits, edits: []flow.Edit{e}, structural: true})
		return true
	}

	// basePos pins each register's move jitter to the position it had when
	// the stream first touched it: repeated moves re-jitter around the base
	// instead of random-walking across clock-tree leaf boundaries.
	basePos := make(map[string][2]int64)
	mergeSeq := 0
	round := 0

	for b := 0; b < o.Batches; b++ {
		window := liveWindow(d, pool, idx)
		if len(window) == 0 {
			return nil, fmt.Errorf("%s: no live movable registers left", name)
		}
		batch := make([]flow.Edit, 0, o.BatchEdits)
		structural := rng.Intn(o.BatchEdits)
		for e := 0; e < o.BatchEdits; e++ {
			r := window[rng.Intn(len(window))]
			base, ok := basePos[r.Name]
			if !ok {
				base = [2]int64{r.Pos.X, r.Pos.Y}
				basePos[r.Name] = base
			}
			alts := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits)
			switch {
			case e == structural && rng.Intn(2) == 0:
				batch = append(batch, flow.MoveTo(r.Name,
					base[0]+int64(rng.Intn(801)-400),
					base[1]+int64(rng.Intn(801)-400)))
			case e == structural && len(alts) > 1:
				batch = append(batch, flow.Resize(r.Name, alts[rng.Intn(len(alts))].Name))
			default:
				batch = append(batch, flow.Skew(r.Name, float64(rng.Intn(81)-40)))
			}
		}
		if err := emit(streamOp{kind: opEdits, edits: batch}); err != nil {
			return nil, err
		}
		if (b+1)%o.MeasureEvery == 0 || b == o.Batches-1 {
			if err := emit(streamOp{kind: opMeasure}); err != nil {
				return nil, err
			}
		}

		if (b+1)%ecoEvery != 0 {
			continue
		}
		// Structural ECO round: merge, split, compose, decompose — cycled.
		applied := false
		switch round % 4 {
		case 0: // bank: merge an adjacent single-bit pair from the window
			off := rng.Intn(len(window))
			for i := 0; i < len(window)-1 && !applied; i++ {
				a, b2 := window[(off+i)%(len(window)-1)], window[(off+i)%(len(window)-1)+1]
				if a.Bits() != 1 || b2.Bits() != 1 || a.RegCell.Class != b2.RegCell.Class {
					continue
				}
				if tryEdit(flow.MergeGroup(fmt.Sprintf("eco_m%d", mergeSeq), a.Name, b2.Name)) {
					mergeSeq++
					st.merges++
					applied = true
				}
			}
		case 1: // debank: split a live MBR, preferring ones this stream banked
			cands := splitCandidates(d, pool, idx)
			for _, in := range cands {
				if tryEdit(flow.SplitInst(in.Name)) {
					st.splits++
					applied = true
					break
				}
			}
		case 2:
			if err := emit(streamOp{kind: opCompose, structural: true}); err != nil {
				return nil, err
			}
			applied = true
		case 3:
			if err := emit(streamOp{kind: opDecompose, decompose: ecoDecomposeConfig(), structural: true}); err != nil {
				return nil, err
			}
			applied = true
		}
		round++
		if applied {
			if err := emit(streamOp{kind: opMeasure}); err != nil {
				return nil, err
			}
		}
	}

	// Close the loop: recompose whatever the decompose rounds freed, then
	// restore any stranded single bits and take the final measurement.
	finale := []streamOp{
		{kind: opCompose, structural: true},
		{kind: opMeasure},
		{kind: opRestore, structural: true},
		{kind: opMeasure},
	}
	for _, op := range finale {
		if err := emit(op); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// liveWindow harvests the design's current movable registers in Morton
// order and cuts the stream's contiguous window out of them — the same
// spatial-neighborhood rule as the parametric profile, but recomputed
// against live state so merged-away registers drop out and freshly banked
// MBRs (or debanked bits) join the neighborhood.
func liveWindow(d *netlist.Design, pool int, idx int64) []*netlist.Inst {
	var regs []*netlist.Inst
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.SizeOnly || in.RegCell == nil {
			return
		}
		regs = append(regs, in)
	})
	sort.Slice(regs, func(i, j int) bool {
		mi := morton([2]int64{regs[i].Pos.X, regs[i].Pos.Y})
		mj := morton([2]int64{regs[j].Pos.X, regs[j].Pos.Y})
		if mi != mj {
			return mi < mj
		}
		return regs[i].Name < regs[j].Name
	})
	if len(regs) == 0 {
		return nil
	}
	if pool > len(regs) {
		pool = len(regs)
	}
	start := int(idx) * pool % len(regs)
	window := make([]*netlist.Inst, 0, pool)
	for i := 0; i < pool; i++ {
		window = append(window, regs[(start+i)%len(regs)])
	}
	return window
}

// splitCandidates orders the live multi-bit registers a debank round may
// split: the stream's own eco_* MBRs first (guaranteeing split ops appear
// in the stream once a bank round succeeded), then the window's MBRs.
func splitCandidates(d *netlist.Design, pool int, idx int64) []*netlist.Inst {
	var own, other []*netlist.Inst
	for _, in := range liveWindow(d, pool, idx) {
		if in.Bits() < 2 {
			continue
		}
		other = append(other, in)
	}
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.Bits() < 2 {
			return
		}
		if strings.HasPrefix(in.Name, "eco_m") {
			own = append(own, in)
		}
	})
	sort.Slice(own, func(i, j int) bool { return own[i].Name < own[j].Name })
	return append(own, other...)
}

// openLocal opens the single-threaded local flow session both the oracle
// replay and the ECO stream generator use. It builds its config from the
// server's sessionConfig, so the engines run exactly as the server's do
// (hysteresis included) and the bytes stay comparable.
func openLocal(o Options) (*flow.Session, error) {
	src := serve.Source{Profile: o.Profile, Scale: o.Scale}
	d, plan, err := src.Load()
	if err != nil {
		return nil, err
	}
	cfg := sessionConfig(o)
	cfg.Workers = 1
	return flow.NewSession(d, plan, cfg.FlowConfig())
}

// applyOpLocal applies one stream op to a local session — the shared op
// semantics of the oracle replay and the ECO generator's scratch mirror.
func applyOpLocal(fs *flow.Session, op streamOp) error {
	var err error
	switch op.kind {
	case opEdits:
		_, err = fs.Apply(op.edits)
	case opMeasure:
		_, err = fs.Measure()
	case opCompose:
		_, err = fs.ComposePass()
	case opDecompose:
		_, err = fs.DecomposePassWith(op.decompose)
	case opRestore:
		_, err = fs.RestorePass()
	default:
		err = fmt.Errorf("unknown stream op %q", op.kind)
	}
	return err
}

// replayLocal replays a stream's ops on a fresh single-threaded
// flow.Session and returns the measurement canonical bytes in sequence,
// mirroring what the server journals: warmup measure, then the op stream.
func replayLocal(st *stream, o Options) ([]string, error) {
	fs, err := openLocal(o)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var out []string
	met, err := fs.Measure() // warmup
	if err != nil {
		return nil, err
	}
	out = append(out, met.Canonical())
	for i, op := range st.ops {
		if op.kind == opMeasure {
			met, err := fs.Measure()
			if err != nil {
				return nil, fmt.Errorf("op %d (measure): %w", i, err)
			}
			out = append(out, met.Canonical())
			continue
		}
		if err := applyOpLocal(fs, op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}
	return out, nil
}

// client is the minimal JSON API client the harness needs.
type client struct {
	base string
	hc   *http.Client
}

// runStream creates the session, streams its ops and returns the
// measurement latencies with the op before each, the canonical measurement
// bytes in sequence, and the rebuild-counter increments observed outside
// structural exclusion windows.
func (c *client) runStream(st *stream, o Options) (lats []measureLat, canon []string, rebuilds, staBuilds int64, err error) {
	create := serve.CreateRequest{
		Name:   st.name,
		Source: serve.Source{Profile: o.Profile, Scale: o.Scale},
		Config: sessionConfig(o),
	}
	var created serve.CreateResponse
	if err = c.post("/v1/sessions", create, &created); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("create: %w", err)
	}

	// Warmup measurement: the engines' first looks are full rebuilds by
	// design; the steady-state window opens after this response.
	var mres serve.MeasureResponse
	if err = c.post("/v1/sessions/"+st.name+"/measure", struct{}{}, &mres); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("warmup measure: %w", err)
	}
	canon = append(canon, mres.Canonical)
	baseline := rebuildCount(mres.Engines)
	staBuilds = int64(mres.Engines["sta"].Rebuilds)

	// excluded marks a structural window: a merge/split/compose/decompose/
	// restore legitimately pays one engine rebuild on its next run, so
	// counter increments re-baseline instead of counting until the next
	// measurement closes the window.
	excluded := false
	account := func(engs wire.EngineSummaries) {
		staBuilds = max(staBuilds, int64(engs["sta"].Rebuilds))
		n := rebuildCount(engs)
		if excluded {
			baseline = n
			return
		}
		if n > baseline {
			rebuilds += n - baseline
			baseline = n
		}
	}

	prev := ""
	for i, op := range st.ops {
		if op.structural {
			excluded = true
		}
		path := "/v1/sessions/" + st.name
		switch op.kind {
		case opEdits:
			var eres serve.EditsResponse
			if err = c.post(path+"/edits", serve.EditsRequest{Edits: op.edits}, &eres); err != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (edits): %w", i, err)
			}
			if eres.Error != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (edits): server: %w", i, eres.Error)
			}
			account(eres.Engines)
		case opMeasure:
			t0 := time.Now()
			var m serve.MeasureResponse
			if err = c.post(path+"/measure", struct{}{}, &m); err != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (measure): %w", i, err)
			}
			lats = append(lats, measureLat{after: prev, ms: float64(time.Since(t0).Microseconds()) / 1000})
			canon = append(canon, m.Canonical)
			account(m.Engines)
			excluded = false
		case opCompose:
			var cres serve.ComposeResponse
			if err = c.post(path+"/compose", struct{}{}, &cres); err != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (compose): %w", i, err)
			}
			account(cres.Engines)
		case opDecompose:
			var dres serve.DecomposeResponse
			req := serve.DecomposeRequest{Decompose: op.decompose}
			if err = c.post(path+"/decompose", req, &dres); err != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (decompose): %w", i, err)
			}
			account(dres.Engines)
		case opRestore:
			var rres serve.RestoreResponse
			if err = c.post(path+"/restore", struct{}{}, &rres); err != nil {
				return lats, canon, rebuilds, staBuilds, fmt.Errorf("op %d (restore): %w", i, err)
			}
			account(rres.Engines)
		}
		prev = op.label()
	}
	return lats, canon, rebuilds, staBuilds, nil
}

// read performs one info + one snapshot request against a session. 404s
// count as zero hits (the session may not exist yet), everything else
// must succeed.
func (c *client) read(name string) (int64, error) {
	var hits int64
	var info serve.InfoResponse
	code, err := c.get("/v1/sessions/"+name, &info)
	if err != nil {
		return hits, err
	}
	if code == http.StatusOK {
		hits++
	} else if code != http.StatusNotFound {
		return hits, fmt.Errorf("info %s: HTTP %d", name, code)
	}
	var snap serve.Snapshot
	code, err = c.get("/v1/sessions/"+name+"/snapshot", &snap)
	if err != nil {
		return hits, err
	}
	if code == http.StatusOK {
		hits++
	} else if code != http.StatusNotFound {
		return hits, fmt.Errorf("snapshot %s: HTTP %d", name, code)
	}
	return hits, nil
}

func (c *client) stats() (*serve.ManagerStats, error) {
	var st serve.ManagerStats
	code, err := c.get("/v1/stats", &st)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", code)
	}
	return &st, nil
}

func (c *client) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		// Error bodies are structured wire.Error envelopes; surface the
		// typed error so callers can branch on its stable code.
		var werr wire.Error
		if json.Unmarshal(data, &werr) == nil && werr.Code != "" {
			return fmt.Errorf("POST %s: HTTP %d: %w", path, resp.StatusCode, &werr)
		}
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (c *client) get(path string, out any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// rebuildCount sums the rebuild counters across a response's retained
// engines; a constant sum across a window means every op in it was served
// on a delta path.
func rebuildCount(engs wire.EngineSummaries) int64 {
	var n int64
	for _, s := range engs {
		n += int64(s.Rebuilds)
	}
	return n
}

// morton interleaves the position's coarse (row/column-granular) bits so
// sorting by it walks the core in a locality-preserving curve.
func morton(pos [2]int64) uint64 {
	x := uint64(pos[0]) >> 10 // ~1µm granularity: same-neighborhood ties
	y := uint64(pos[1]) >> 10
	var m uint64
	for b := 0; b < 32; b++ {
		m |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
	}
	return m
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

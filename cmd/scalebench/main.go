// Command scalebench sweeps the composition pipeline across benchmark
// profiles and scale divisors and records the cells-vs-time/memory curve the
// scale roadmap item asks for. Scale 20 is the historical benchmark size;
// Scale 1 is the paper's full size (0.87M–3.3M cells). For every
// (profile, scale) point it generates the design, runs STA, builds the
// compatibility graph and composes (core.Compose), reporting per-phase wall
// times, the shard scheduler's counters, and peak memory (sampled heap +
// process MaxRSS).
//
//	scalebench -profiles D1,D4 -scales 20,5,2,1 -out BENCH_scale.json
//	scalebench -profiles D1,D2,D3,D4,D5 -scales 5 -maxrss-mb 4096
//
// With -maxrss-mb the process exits non-zero when its final MaxRSS exceeds
// the bound — the CI scale-smoke memory-regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/sta"
)

// Row is one sweep point of the cells-vs-time/memory curve.
type Row struct {
	Profile string `json:"profile"`
	Scale   int    `json:"scale"`

	Cells int `json:"cells"`
	Regs  int `json:"regs"`
	Nets  int `json:"nets"`

	GenMS     float64 `json:"genMS"`
	STAMS     float64 `json:"staMS"`
	CompatMS  float64 `json:"compatMS"`
	ComposeMS float64 `json:"composeMS"`
	TotalMS   float64 `json:"totalMS"`

	MBRs         int     `json:"mbrs"`
	RegsAfter    int     `json:"regsAfter"`
	Subgraphs    int     `json:"subgraphs"`
	Candidates   int     `json:"candidates"`
	ObjectiveSum float64 `json:"objectiveSum"`
	SchedShards  int     `json:"schedShards"`
	SchedSteals  int     `json:"schedSteals"`
	Workers      int     `json:"workers"`

	PeakHeapMB float64 `json:"peakHeapMB"`
	MaxRSSMB   float64 `json:"maxRSSMB"`
}

// Output is the BENCH_scale.json shape.
type Output struct {
	GoMaxProcs int    `json:"goMaxProcs"`
	Rows       []Row  `json:"rows"`
	Note       string `json:"note,omitempty"`
}

func main() {
	var (
		profiles   = flag.String("profiles", "D1,D4", "comma-separated profiles to sweep (D1..D5)")
		scales     = flag.String("scales", "20,5,2,1", "comma-separated scale divisors, typically largest first")
		out        = flag.String("out", "", "write the sweep as JSON to this file (default stdout)")
		workers    = flag.Int("workers", 0, "composition worker count (0 = GOMAXPROCS)")
		maxRSSMB   = flag.Float64("maxrss-mb", 0, "exit 1 when the process MaxRSS exceeds this many MB (0 = no assertion)")
		note       = flag.String("note", "", "free-form note recorded in the output")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	scaleList, err := parseInts(*scales)
	if err != nil {
		fatal(fmt.Errorf("-scales: %w", err))
	}
	profileList := strings.Split(*profiles, ",")

	output := Output{GoMaxProcs: runtime.GOMAXPROCS(0), Note: *note}
	for _, scale := range scaleList {
		for _, p := range profileList {
			row, err := runPoint(strings.TrimSpace(p), scale, *workers)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr,
				"%s scale=%d: %d cells, %d regs -> %d, compose %.0f ms (total %.0f ms), peak heap %.0f MB, %d shards (%d stolen), %d cands\n",
				row.Profile, row.Scale, row.Cells, row.Regs, row.RegsAfter,
				row.ComposeMS, row.TotalMS, row.PeakHeapMB,
				row.SchedShards, row.SchedSteals, row.Candidates)
			output.Rows = append(output.Rows, row)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(output); err != nil {
		fatal(err)
	}

	if rss := maxRSS(); *maxRSSMB > 0 && rss > *maxRSSMB {
		fmt.Fprintf(os.Stderr, "scalebench: MaxRSS %.0f MB exceeds the -maxrss-mb %.0f MB bound\n", rss, *maxRSSMB)
		os.Exit(1)
	}
}

// runPoint measures one (profile, scale) sweep point: generate, time, build
// the compatibility graph, compose. The heap sampler brackets only this
// point; a forced GC before it starts keeps the previous point's garbage
// out of the measurement.
func runPoint(profile string, scale, workers int) (Row, error) {
	spec, err := profileSpec(profile, scale)
	if err != nil {
		return Row{}, err
	}
	runtime.GC()
	sampler := startHeapSampler()
	defer sampler.stop()

	row := Row{Profile: profile, Scale: scale}
	start := time.Now()
	b, err := bench.Generate(spec)
	if err != nil {
		return Row{}, fmt.Errorf("%s scale=%d: generate: %w", profile, scale, err)
	}
	row.GenMS = ms(time.Since(start))
	d := b.Design
	row.Cells = d.NumInsts()
	row.Regs = len(d.Registers())
	row.Nets = d.NumNets()

	t := time.Now()
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	sres, err := eng.Run()
	if err != nil {
		return Row{}, fmt.Errorf("%s scale=%d: sta: %w", profile, scale, err)
	}
	row.STAMS = ms(time.Since(t))

	t = time.Now()
	g := compat.Build(d, sres, b.Plan, compat.DefaultOptions())
	row.CompatMS = ms(time.Since(t))

	opts := core.DefaultOptions()
	opts.Workers = workers
	t = time.Now()
	cres, err := core.Compose(d, g, b.Plan, opts)
	if err != nil {
		return Row{}, fmt.Errorf("%s scale=%d: compose: %w", profile, scale, err)
	}
	row.ComposeMS = ms(time.Since(t))
	row.TotalMS = ms(time.Since(start))

	row.MBRs = len(cres.MBRs)
	row.RegsAfter = cres.RegsAfter
	row.Subgraphs = cres.Subgraphs
	row.Candidates = cres.Candidates
	row.ObjectiveSum = cres.ObjectiveSum
	row.SchedShards = cres.SchedShards
	row.SchedSteals = cres.SchedSteals
	row.Workers = cres.Workers
	row.PeakHeapMB = sampler.peakMB()
	row.MaxRSSMB = maxRSS()
	return row, nil
}

// heapSampler polls runtime.MemStats.HeapAlloc until stopped, keeping the
// high-water mark. 10 ms sampling is coarse against a multi-second sweep
// point but far finer than the phase durations it brackets.
type heapSampler struct {
	peak int64
	done chan struct{}
	fin  chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{}), fin: make(chan struct{})}
	go func() {
		defer close(s.fin)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			if h := int64(m.HeapAlloc); h > atomic.LoadInt64(&s.peak) {
				atomic.StoreInt64(&s.peak, h)
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	<-s.fin
}

func (s *heapSampler) peakMB() float64 {
	s.stop()
	return float64(atomic.LoadInt64(&s.peak)) / (1 << 20)
}

// maxRSS reports the process's peak resident set in MB (Linux getrusage
// reports KB).
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
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
	return bench.Spec{}, fmt.Errorf("unknown profile %q (want D1..D5)", name)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("scale %d: must be >= 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Command benchmark is the repository's end-to-end and per-layer
// benchmark. One invocation measures one workload — as many designs or
// loadtest rounds as take -seconds on the host the baseline was measured
// on — and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, ...}}
//
// preceded by a stamp line naming the commit, CPU count, GOMAXPROCS,
// worker count, Go version, seed and per-metric sample counts.
//
//	bash benchmark/run.sh --workload flow_d1 --seed 1 --seconds 15 --trace 0
//	cd benchmark && go run . -workload all -seed 2
//
// Without -trace 1 the metrics are the end-to-end ones, measured only
// through the stable top-level APIs (flow.Run, serve.Handler behind a
// timing middleware, loadtest.Run). With -trace 1 a separate run times the
// calls into each layer's public functions from this package's own code
// and reports the per-layer metrics; nothing inside the program is
// instrumented. Every run checks its outputs; a failed check counts in
// "failed" and makes "correct" false.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

// workload is one set of inputs the benchmark runs. Batch workloads run the
// paper's flow on freshly generated designs; serve workloads drive the
// composition server with concurrent closed-loop edit streams.
type workload struct {
	name    string
	profile string
	scale   int
	serve   bool
	// eco selects the loadtest ECO-replay streams (merge/split edits,
	// compose and decompose rounds) over the parametric ones.
	eco bool
	// batches is the stream length per session in one loadtest round.
	batches int
	// traceBatches is the stream length of the traced measure-layer driver.
	traceBatches int
	// repSeconds is the wall time of one design (batch) or loadtest round
	// (serve) on the 2-vCPU host the baseline was measured on.
	repSeconds float64
}

// count is how many designs or rounds a run of the given length measures:
// one per repSeconds, and at least minReps designs or two rounds so every
// median has several samples. It depends on -seconds alone, never on how
// fast the host happens to be, so a seed always measures the same inputs.
func (w workload) count(seconds int) int {
	least := minReps
	if w.serve {
		least = 2
	}
	return max(least, int(float64(seconds)/w.repSeconds))
}

// workloads are chosen so that each layer does most of its work in one
// workload and little in another: flow_d1 is composition-heavy, flow_d4 is
// analysis-heavy and compose-light (45% of its registers are already
// 8-bit), serve_edits exercises every retained engine's delta path and
// composes once per stream, serve_eco runs the same compose/compat/cts
// layers under structural writes beside measure reads.
var workloads = []workload{
	{name: "flow_d1", profile: "D1", scale: 5, traceBatches: 120, repSeconds: 1.5},
	{name: "flow_d4", profile: "D4", scale: 3, traceBatches: 60, repSeconds: 5},
	{name: "serve_edits", profile: "D1", scale: 5, serve: true, batches: 150, traceBatches: 120, repSeconds: 11},
	{name: "serve_eco", profile: "D1", scale: 20, serve: true, eco: true, batches: 150, traceBatches: 120, repSeconds: 9},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// boolArg is a boolean flag that takes its value as a separate argument
// ("-trace 1"), the form the benchmark is invoked with.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	record  string
	spans   string
}

func main() {
	var (
		name  = flag.String("workload", "", "workload to run: flow_d1, flow_d4, serve_edits, serve_eco, or all")
		o     options
		trace boolArg
	)
	flag.Int64Var(&o.seed, "seed", 1, "input seed; 1 selects each profile's built-in design seed")
	flag.IntVar(&o.seconds, "seconds", 15, "run length: the designs or rounds that take this long on the baseline host")
	flag.Var(&trace, "trace", "1 = per-layer run, 0 = end-to-end run")
	flag.StringVar(&o.record, "record", "", "write the seed-1 output digests of the batch workloads to this file (benchmark/expected.json)")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans as JSON to this file")
	flag.Parse()
	o.trace = bool(trace)
	if flag.NArg() > 0 || o.seconds < 1 {
		fatalf("usage: benchmark -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
	}

	if *name == "all" {
		os.Exit(runAll())
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	rep := run(w, o)
	if o.record != "" && !o.trace && !w.serve {
		if err := recordDigest(o.record, w.name, rep.digest); err != nil {
			fatalf("record: %v", err)
		}
	}
	if o.spans != "" && o.trace {
		if err := writeJSONFile(o.spans, rep.tracer.spans); err != nil {
			fatalf("spans: %v", err)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"stamp": newStamp(w, o, rep)}); err != nil {
		fatalf("encode: %v", err)
	}
	if err := enc.Encode(rep.result()); err != nil {
		fatalf("encode: %v", err)
	}
	if err := out.Flush(); err != nil {
		fatalf("write: %v", err)
	}
}

// run measures one workload and returns its report.
func run(w workload, o options) *report {
	rep := newReport()
	switch {
	case o.trace:
		traceWorkload(w, o.seed, rep)
	case w.serve:
		runServe(w, o.seed, w.count(o.seconds), rep)
	default:
		runBatch(w, o.seed, w.count(o.seconds), rep)
	}
	return rep
}

// runAll re-runs this binary once per workload, so every workload gets a
// fresh process (heap, GC pacing and peak RSS start clean). It forwards the
// flags and returns a non-zero exit status when any child fails.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locate executable: %v", err)
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// stamp identifies the build, host and settings a result was measured with.
type stamp struct {
	Workload   string         `json:"workload"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"goVersion"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Sessions   int            `json:"sessions,omitempty"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"`
}

func newStamp(w workload, o options, rep *report) stamp {
	s := stamp{
		Workload:   w.name,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    batchWorkers,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Samples:    rep.samples,
	}
	if w.serve {
		s.Workers, s.Sessions = serveWorkers, serveSessions
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

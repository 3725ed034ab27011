package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// units names every metric the benchmark emits with its unit. BENCHMARK.json
// at the repository root lists the same names; the smoke test keeps the two
// in step.
var units = map[string]string{
	// End to end (untraced runs).
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"compose_ms":     "ms",
	"ops_per_s":      "1/s",
	"peak_rss_mb":    "MB",
	"regs_ratio":     "ratio",
	"clkcap_ratio":   "ratio",
	"tns_ratio":      "ratio",
	"wns_ratio":      "ratio",
	"overflow_ratio": "ratio",
	"wl_ratio":       "ratio",

	// Batch layer driver (traced runs).
	"bench.generate_ms":      "ms",
	"cts.attach_ms":          "ms",
	"sta.full_ms":            "ms",
	"sta.full_w1_ms":         "ms",
	"sta.pins":               "count",
	"sta.full_allocs":        "count",
	"compat.build_ms":        "ms",
	"compat.edges":           "count",
	"compat.build_allocs":    "count",
	"route.rebuild_ms":       "ms",
	"metrics.aggregates_ms":  "ms",
	"cts.metrics_ms":         "ms",
	"core.candidates_ms":     "ms",
	"core.candidates":        "count",
	"partition.decompose_ms": "ms",
	"partition.subgraphs":    "count",
	"ilp.solve_ms":           "ms",
	"ilp.nodes":              "count",
	"core.compose_ms":        "ms",
	"core.compose_w1_ms":     "ms",
	"core.compose_allocs":    "count",
	"core.commit_ms":         "ms",
	"core.mbrs":              "count",
	"core.sched_steals":      "count",
	"core.peak_live_shards":  "count",
	"cts.update_ms":          "ms",
	"cts.canonicalize_ms":    "ms",
	"flow.skew_sizing_ms":    "ms",
	"trace.coverage_frac":    "ratio",

	// Measure layer driver and served comparison (traced runs).
	"measure.driver_p50_ms":     "ms",
	"measure.driver_p99_ms":     "ms",
	"measure.driver_allocs":     "count",
	"cts.update_p50_ms":         "ms",
	"cts.update_p99_ms":         "ms",
	"sta.incremental_p50_ms":    "ms",
	"sta.incremental_p99_ms":    "ms",
	"compatgraph.update_p50_ms": "ms",
	"compatgraph.update_p99_ms": "ms",
	"cts.metrics_p50_ms":        "ms",
	"cts.metrics_p99_ms":        "ms",
	"route.overflow_p50_ms":     "ms",
	"route.overflow_p99_ms":     "ms",
	"metrics.delta_p50_ms":      "ms",
	"metrics.delta_p99_ms":      "ms",
	"sta.cone_pins":             "count",
	"compatgraph.pairs_tested":  "count",
	"route.nets_delta":          "count",
	"cts.reclustered_leaves":    "count",
	"serve.measure_p50_ms":      "ms",
	"serve.overhead_ms":         "ms",
	"sta.delta_frac":            "ratio",
	"compatgraph.delta_frac":    "ratio",
	"cts.delta_frac":            "ratio",
	"route.delta_frac":          "ratio",
	"metrics.delta_frac":        "ratio",
	"core.delta_frac":           "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, sample counts and failures.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failures  []string
	// digest is the seed's first batch design's output digest (batch runs).
	digest string
	tracer *tracer
}

func newReport() *report {
	return &report{
		metrics: map[string]metric{},
		samples: map[string]int{},
		tracer:  newTracer(),
	}
}

// set records a metric computed from n samples.
func (r *report) set(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " has no unit")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: u}
	r.samples[name] = n
}

// median records the median of xs.
func (r *report) median(name string, xs []float64) {
	r.set(name, median(xs), len(xs))
}

// series collects per-call samples of several metrics by name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// medians records the median of every series.
func (r *report) medians(s series) {
	for name, xs := range s {
		r.median(name, xs)
	}
}

// fail counts a failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check fails with the error's message when err is non-nil.
func (r *report) check(what string, err error) bool {
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

func (r *report) result() map[string]any {
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": attempted,
		"failed":    len(r.failures),
		"metrics":   r.metrics,
	}
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMB is the process's peak resident set in MB (Linux getrusage
// reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a tiny scale and
// checks that each metric BENCHMARK.json names is emitted with its unit and
// that no operation or check failed. Seed 2 skips the seed-1 digest check,
// whose expected values belong to the full-size designs. The batch designs
// stay at Scale 50: on smaller ones composition degrades TNS past the
// timing check's tolerance.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bm struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w.scale, w.batches, w.traceBatches = 50, 10, 10
		if w.serve {
			w.scale = 100
		}
		for _, trace := range []bool{false, true} {
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			rep := run(w, options{seed: 2, seconds: 1, trace: trace})
			for _, f := range rep.failures {
				t.Errorf("%s trace=%v: %s", w.name, trace, f)
			}
			if rep.attempted == 0 {
				t.Errorf("%s trace=%v: no operations attempted", w.name, trace)
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(rep.metrics), len(want))
			}
		}
	}
}

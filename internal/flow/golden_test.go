package flow

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// Golden-file regression tests: the canonical report of the default flow on
// three small benchmark profiles is pinned byte-for-byte under testdata/.
// Any drift in a metric, a selected MBR, a weight or a placement decision
// fails the test — the behavioural anchor the parallel refactor (and every
// future one) is verified against.
//
// Regenerate after an intentional behaviour change with:
//
//	go test ./internal/flow -run TestGolden -update
//
// and review the diff like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenScale shrinks the profiles so the three flows run in well under a
// second each while still exercising partitioning, the ILP, scan bookkeeping
// and both optimization passes.
const goldenScale = 200

func goldenSpecs() []bench.Spec {
	o := bench.ProfileOpts{Scale: goldenScale}
	return []bench.Spec{bench.D1(o), bench.D2(o), bench.D3(o)}
}

func TestGoldenReports(t *testing.T) {
	for _, spec := range goldenSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			checkGolden(t, "report_"+spec.Name+".golden", runCanonical(t, spec, 0))
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n%s\n(rerun with -update only if the change is intentional)",
			path, firstDiff(string(want), got))
	}
}

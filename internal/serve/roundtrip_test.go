package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/flow"
	"repro/internal/netlist"
)

// TestMergeSplitMergeRoundTrip proves the split edit is the exact inverse
// of a merge on every benchmark profile at two worker counts: a session
// merges a scan-compatible pair, splits the MBR back into bits, re-merges
// those bits, and the design stays valid with the epoch advancing at each
// structural step. The session is then snapshotted and restored — the
// restore path replays the merge/split journal and re-verifies the state
// digest, so the whole round trip is byte-stable under replay.
func TestMergeSplitMergeRoundTrip(t *testing.T) {
	profiles := []Source{
		{Profile: "D1", Scale: 60},
		{Profile: "D2", Scale: 60},
		{Profile: "D3", Scale: 60},
		{Profile: "D4", Scale: 60},
		{Profile: "D5", Scale: 60},
	}
	for _, src := range profiles {
		for _, workers := range []int{1, 4} {
			src, workers := src, workers
			t.Run(fmt.Sprintf("%s/workers=%d", src.Profile, workers), func(t *testing.T) {
				t.Parallel()
				m := NewManager(Options{MaxSessions: 32})
				cfg := SessionConfig{
					Workers:              workers,
					RecenterThresholdDBU: 3000,
					CompatMaxDeltaFrac:   0.5,
				}
				live, err := m.Create("rt-"+src.Profile, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := live.fs.Design()

				// Probe for a mergeable single-bit pair through the edit API;
				// rejected merges are side-effect free and never journaled, so
				// probing leaves no trace in the replayed op sequence.
				var regs []*netlist.Inst
				d.Insts(func(in *netlist.Inst) {
					if in.Kind == netlist.KindReg && !in.Fixed && !in.SizeOnly &&
						in.Bits() == 1 && len(regs) < 60 {
						regs = append(regs, in)
					}
				})
				epoch0 := live.fs.Epoch()
				merged := false
			probe:
				for i := range regs {
					for j := i + 1; j < len(regs); j++ {
						if regs[i].RegCell.Class != regs[j].RegCell.Class {
							continue
						}
						e := flow.MergeGroup("rt_mbr", regs[i].Name, regs[j].Name)
						if _, err := apply(live, e); err == nil {
							merged = true
							break probe
						}
					}
				}
				if !merged {
					t.Fatalf("%s: no mergeable single-bit pair", src.Profile)
				}
				epoch1 := live.fs.Epoch()
				if epoch1 == epoch0 {
					t.Fatal("merge did not advance the epoch")
				}

				sres, err := apply(live, flow.SplitInst("rt_mbr"))
				if err != nil {
					t.Fatalf("split: %v", err)
				}
				if len(sres.Split) != 1 || sres.Split[0] != "rt_mbr" {
					t.Fatalf("split result %+v", sres)
				}
				if live.fs.Epoch() == epoch1 {
					t.Fatal("split did not advance the epoch")
				}
				var parts []string
				for _, p := range []string{"rt_mbr_b0", "rt_mbr_b1"} {
					if d.InstByName(p) == nil {
						t.Fatalf("split part %s missing", p)
					}
					parts = append(parts, p)
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("design invalid after split: %v", err)
				}

				// Exact inverse: the bits the split produced are still a
				// scan-compatible group, so re-merging them must succeed.
				if _, err := apply(live, flow.MergeGroup("rt_mbr2", parts...)); err != nil {
					t.Fatalf("re-merge after split: %v", err)
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("design invalid after re-merge: %v", err)
				}
				if _, err := measure(live); err != nil {
					t.Fatal(err)
				}

				// Snapshot digest stability: the journaled merge→split→merge
				// sequence replays to the identical state bytes (Restore
				// re-verifies the SHA-256 digest itself).
				snap, err := live.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				enc, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded Snapshot
				if err := json.Unmarshal(enc, &decoded); err != nil {
					t.Fatal(err)
				}
				decoded.Name = "rt2-" + src.Profile
				restored, err := m.Restore("", &decoded)
				if err != nil {
					t.Fatalf("restore with merge/split journal: %v", err)
				}
				liveState, err := live.DumpState()
				if err != nil {
					t.Fatal(err)
				}
				restState, err := restored.DumpState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveState, restState) {
					t.Fatalf("restored state differs from live (%d vs %d bytes)",
						len(liveState), len(restState))
				}
			})
		}
	}
}

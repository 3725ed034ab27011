package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/flow"
	"repro/internal/netlist"
)

// editScript builds a deterministic mixed op sequence for a profile: skews
// on the first movable registers, one move, one resize when the library
// offers an alternate, interleaved with measures.
func editScript(t *testing.T, src Source) [][]flow.Edit {
	t.Helper()
	d, _, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var movable []struct {
		name string
		x, y int64
		alt  string
	}
	for _, in := range d.Registers() {
		if in.Fixed {
			continue
		}
		alt := ""
		for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
			if c.Name != in.RegCell.Name {
				alt = c.Name
				break
			}
		}
		movable = append(movable, struct {
			name string
			x, y int64
			alt  string
		}{in.Name, in.Pos.X, in.Pos.Y, alt})
		if len(movable) == 6 {
			break
		}
	}
	if len(movable) < 6 {
		t.Fatalf("profile %s too small: %d movable regs", src.Profile, len(movable))
	}
	batches := [][]flow.Edit{
		{
			flow.Skew(movable[0].name, 11),
			flow.Skew(movable[1].name, -7),
		},
		{
			flow.MoveTo(movable[2].name, movable[2].x+640, movable[2].y),
			flow.Skew(movable[3].name, 23),
		},
		{
			flow.Skew(movable[4].name, -15),
			flow.Skew(movable[5].name, 4),
		},
	}
	if movable[1].alt != "" {
		batches[2] = append(batches[2], flow.Resize(movable[1].name, movable[1].alt))
	}
	return batches
}

// TestSnapshotByteIdentity drives every benchmark profile through a mixed
// edit/measure/compose sequence at two worker counts, snapshots, restores,
// and requires the restored session's observable state bytes to equal the
// live session's exactly. The restore path itself re-verifies the SHA-256
// digest, so this also exercises the digest check end to end.
func TestSnapshotByteIdentity(t *testing.T) {
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
				live, err := m.Create("live-"+src.Profile, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, batch := range editScript(t, src) {
					if _, _, err := live.Apply(batch); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					if _, _, err := live.Measure(); err != nil {
						t.Fatalf("measure %d: %v", i, err)
					}
				}
				if _, _, err := live.Compose(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := live.Measure(); err != nil {
					t.Fatal(err)
				}

				snap, err := live.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				// Snapshots must survive a JSON round trip unchanged — that is
				// how they travel over the wire.
				enc, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded Snapshot
				if err := json.Unmarshal(enc, &decoded); err != nil {
					t.Fatal(err)
				}
				restored, err := m.Restore("restored-"+src.Profile, &decoded)
				if err != nil {
					t.Fatal(err)
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
					t.Fatalf("restored state differs from live state (%d vs %d bytes)",
						len(liveState), len(restState))
				}

				// And the next measurement is byte-identical too.
				lm, _, err := live.Measure()
				if err != nil {
					t.Fatal(err)
				}
				rm, _, err := restored.Measure()
				if err != nil {
					t.Fatal(err)
				}
				if lm.Canonical() != rm.Canonical() {
					t.Fatalf("post-restore measure diverged:\nlive:\n%srestored:\n%s",
						lm.Canonical(), rm.Canonical())
				}
			})
		}
	}
}

// TestSnapshotAfterRejectedMerge pins that a rejected merge edit leaves
// nothing a snapshot misses: the journal skips failed edits, so a session
// that tried to merge registers of two clock domains (after a measure, so
// their clock pins sit on tree leaf nets) must still restore to the same
// state bytes.
func TestSnapshotAfterRejectedMerge(t *testing.T) {
	src := testSource()
	d, plan, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var a, b string
	var regs []*netlist.Inst
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() == 1 {
			regs = append(regs, in)
		}
	}
find:
	for i, r := range regs {
		for _, o := range regs[i+1:] {
			if r.RegCell.Class != o.RegCell.Class || d.ClockNet(r) == d.ClockNet(o) ||
				d.ControlNet(r, netlist.PinReset) != d.ControlNet(o, netlist.PinReset) ||
				d.ControlNet(r, netlist.PinEnable) != d.ControlNet(o, netlist.PinEnable) ||
				!plan.GroupCompatible(plan.MergeOrder([]netlist.InstID{r.ID, o.ID})) {
				continue
			}
			a, b = r.Name, o.Name
			break find
		}
	}
	if a == "" {
		t.Fatal("no cross-domain register pair")
	}

	m := NewManager(Options{})
	live, err := m.Create("live", src, SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.Apply([]flow.Edit{flow.MergeGroup("cross", a, b)}); err == nil {
		t.Fatalf("merging %s and %s across clock domains must fail", a, b)
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := m.Restore("restored", snap)
	if err != nil {
		t.Fatalf("restore after a rejected merge: %v", err)
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
		t.Fatal("restored state differs from live state")
	}
}

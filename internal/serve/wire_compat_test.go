package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/flow"
)

// editToV1 renders an edit in the retired v1 flat wire form — the shape
// pre-v2 journals and snapshots carry on disk.
func editToV1(t *testing.T, e flow.Edit) map[string]any {
	t.Helper()
	switch {
	case e.Move != nil:
		return map[string]any{"op": "move", "inst": e.Move.Inst, "x": *e.Move.X, "y": *e.Move.Y}
	case e.Resize != nil:
		return map[string]any{"op": "resize", "inst": e.Resize.Inst, "cell": e.Resize.Cell}
	case e.Skew != nil:
		return map[string]any{"op": "skew", "inst": e.Skew.Inst, "skewPS": e.Skew.SkewPS}
	case e.Merge != nil:
		v1 := map[string]any{"op": "merge", "group": e.Merge.Group, "name": e.Merge.Name}
		if e.Merge.Cell != "" {
			v1["cell"] = e.Merge.Cell
		}
		if e.Merge.X != nil {
			v1["x"], v1["y"] = *e.Merge.X, *e.Merge.Y
		}
		return v1
	case e.Split != nil:
		v1 := map[string]any{"op": "split", "inst": e.Split.Inst}
		if e.Split.Cell != "" {
			v1["cell"] = e.Split.Cell
		}
		return v1
	}
	t.Fatalf("no v1 form for edit %+v", e)
	return nil
}

// TestV1JournalRestoresBitIdentically pins the compatibility satellite: a
// snapshot whose journal is written in the v1 flat edit form (as every
// pre-v2 snapshot on disk is) restores into a session byte-identical to
// the v2 original — same replay, same digest, same state bytes.
func TestV1JournalRestoresBitIdentically(t *testing.T) {
	m := NewManager(Options{MaxSessions: 8})
	src := testSource()
	live, err := m.Create("v1c", src, SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range editScript(t, src) {
		if _, err := apply(live, batch...); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if _, err := measure(live); err != nil {
		t.Fatal(err)
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Re-render the snapshot with every journaled edit in v1 flat form.
	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), `"op":`) {
		t.Fatal("v2 snapshot encoding leaked a v1 flat record")
	}
	var raw map[string]any
	if err := json.Unmarshal(enc, &raw); err != nil {
		t.Fatal(err)
	}
	ops := raw["ops"].([]any)
	for oi, op := range snap.Ops {
		if op.Kind != flow.OpEdits {
			continue
		}
		v1edits := make([]any, len(op.Edits))
		for ei, e := range op.Edits {
			v1edits[ei] = editToV1(t, e)
		}
		ops[oi].(map[string]any)["edits"] = v1edits
	}
	v1enc, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v1enc), `"op":"skew"`) {
		t.Fatal("v1 rewrite did not take")
	}

	var v1snap Snapshot
	if err := json.Unmarshal(v1enc, &v1snap); err != nil {
		t.Fatalf("decode v1 snapshot: %v", err)
	}
	v1snap.Name = "v1c-restored"
	restored, err := m.Restore("", &v1snap)
	if err != nil {
		t.Fatalf("restore from v1 journal: %v", err)
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
		t.Fatalf("v1-journal restore diverged (%d vs %d bytes)", len(liveState), len(restState))
	}

	// A v1 record with an unknown op is rejected at decode time.
	badOps := `{"version":1,"name":"bad","source":{"profile":"D1","scale":200},` +
		`"config":{},"ops":[{"kind":"edits","edits":[{"op":"frobnicate","inst":"r"}]}],"stateSHA":""}`
	var bad Snapshot
	if err := json.Unmarshal([]byte(badOps), &bad); err == nil ||
		!strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown v1 op decode = %v, want rejection", err)
	}
}

// TestSnapshotDecomposeOpReplay pins the new journal op kinds: a session
// that ran decompose and restore passes snapshots them with their exact
// config, and the restore replay reproduces identical state bytes.
func TestSnapshotDecomposeOpReplay(t *testing.T) {
	m := NewManager(Options{MaxSessions: 8})
	src := testSource()
	live, err := m.Create("dj", src, SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bank a pair through the edit API so the decompose pass has an MBR.
	d := live.fs.Design()
	var names []string
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() == 1 && len(names) < 60 {
			names = append(names, in.Name)
		}
	}
	merged := false
probe:
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if _, err := apply(live, flow.MergeGroup("dj_mbr", names[i], names[j])); err == nil {
				merged = true
				break probe
			}
		}
	}
	if !merged {
		t.Fatal("no mergeable pair")
	}
	if _, err := measure(live); err != nil {
		t.Fatal(err)
	}

	dcfg := flow.DecomposeConfig{Budget: 2, SlackThresholdPS: 1e9}
	dres, _, err := live.Do(flow.Op{Kind: flow.OpDecompose, Decompose: &dcfg})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	if len(dres.Decompose.Victims) == 0 {
		t.Fatal("decompose found no victims despite a live MBR")
	}
	rres, _, err := live.Do(flow.Op{Kind: flow.OpRestore})
	if err != nil {
		t.Fatalf("restore pass: %v", err)
	}
	if rres.Restored == 0 {
		t.Fatal("restore pass re-merged nothing")
	}
	if _, err := measure(live); err != nil {
		t.Fatal(err)
	}
	info := live.Info()
	if info.Decomposes != 1 {
		t.Fatalf("info.Decomposes = %d, want 1", info.Decomposes)
	}

	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sawDecompose, sawRestore bool
	for _, op := range snap.Ops {
		switch op.Kind {
		case flow.OpDecompose:
			sawDecompose = true
			if op.Decompose == nil || *op.Decompose != dcfg {
				t.Fatalf("journaled decompose config %+v, want %+v", op.Decompose, dcfg)
			}
		case flow.OpRestore:
			sawRestore = true
		}
	}
	if !sawDecompose || !sawRestore {
		t.Fatalf("journal misses decompose/restore ops: %+v", snap.Ops)
	}

	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	decoded.Name = "dj2"
	restored, err := m.Restore("", &decoded)
	if err != nil {
		t.Fatalf("restore with decompose journal: %v", err)
	}
	liveState, _ := live.DumpState()
	restState, _ := restored.DumpState()
	if !bytes.Equal(liveState, restState) {
		t.Fatalf("decompose-journal restore diverged (%d vs %d bytes)", len(liveState), len(restState))
	}

	// A decompose op without its config cannot replay.
	mangled := decoded
	mangled.Name = "dj3"
	mangled.Ops = cloneOps(decoded.Ops)
	for i := range mangled.Ops {
		if mangled.Ops[i].Kind == flow.OpDecompose {
			mangled.Ops[i].Decompose = nil
		}
	}
	if _, err := m.Restore("", &mangled); err == nil ||
		!strings.Contains(err.Error(), "decompose op without config") {
		t.Fatalf("config-less decompose replay = %v, want rejection", err)
	}
}

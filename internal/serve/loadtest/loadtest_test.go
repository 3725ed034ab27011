package loadtest

import "testing"

// TestSmoke runs a scaled-down harness pass in-process: concurrent edit
// streams against the HTTP server, every stream checked byte-for-byte
// against its local replay oracle, with zero steady-state rebuild
// fallbacks across all retained engines.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness smoke is not a -short test")
	}
	o := DefaultOptions()
	o.Sessions = 2
	o.Batches = 12
	o.Readers = 2
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyRebuilds != 0 {
		t.Fatalf("steady-state rebuilds = %d, want 0", res.SteadyRebuilds)
	}
	if res.OracleStreams != o.Sessions {
		t.Fatalf("oracle streams verified = %d, want %d", res.OracleStreams, o.Sessions)
	}
	if want := int64(o.Sessions * o.Batches * o.BatchEdits); res.Edits != want {
		t.Fatalf("edits = %d, want %d", res.Edits, want)
	}
	if res.Measures == 0 || res.Composes != int64(o.Sessions) {
		t.Fatalf("measures=%d composes=%d", res.Measures, res.Composes)
	}
}

// TestECOSmoke runs the ECO-replay stream profile: logic edits interleaved
// with bank (merge), debank (split), compose, and slack-driven decompose
// rounds. The retained engines must stay delta-incremental outside the
// structural windows those rounds open, and every stream must still replay
// byte-identically against its single-threaded oracle.
func TestECOSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ECO harness smoke is not a -short test")
	}
	o := DefaultECOOptions()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyRebuilds != 0 {
		t.Fatalf("steady-state rebuilds = %d, want 0", res.SteadyRebuilds)
	}
	if res.OracleStreams != o.Sessions {
		t.Fatalf("oracle streams verified = %d, want %d", res.OracleStreams, o.Sessions)
	}
	if res.MergeOps == 0 {
		t.Fatal("ECO stream generated no merge ops")
	}
	if res.SplitOps == 0 {
		t.Fatal("ECO stream generated no split ops")
	}
	if res.Decomposes == 0 {
		t.Fatal("ECO stream ran no decompose passes")
	}
	if res.Composes == 0 {
		t.Fatal("ECO stream ran no compose passes")
	}
	// The STA engine builds its timing graph once per session: every
	// merge, split, compose and decompose round is patched into it.
	if res.STARebuilds != 1 {
		t.Fatalf("STA graph builds per session = %d, want 1", res.STARebuilds)
	}
}

// TestECOStreamSevenNoSteadyRebuilds replays ECO stream seed 7 with the
// benchmark's ECO settings (D1@20, 40 batches, one worker, no readers).
// When measures still updated the compatibility graph under propagated
// clocks, a clock-tree re-cluster rippled slack changes across the domain
// and this stream paid a retained-engine rebuild in its steady state.
func TestECOStreamSevenNoSteadyRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("ECO stream regression is not a -short test")
	}
	o := DefaultECOOptions()
	o.Scale = 20
	o.Seed = 7
	o.Batches = 40
	o.Sessions = 2
	o.Workers = 1
	o.Readers = 0
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyRebuilds != 0 {
		t.Fatalf("steady-state rebuilds = %d, want 0", res.SteadyRebuilds)
	}
	if res.OracleStreams != o.Sessions {
		t.Fatalf("oracle streams verified = %d, want %d", res.OracleStreams, o.Sessions)
	}
}

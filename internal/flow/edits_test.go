package flow

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestEditV1DecodeEveryOp pins the compatibility contract: every v1 flat
// record (the retired {"op": ...} wire form old serve journals and
// snapshots carry) decodes to the equivalent v2 envelope.
func TestEditV1DecodeEveryOp(t *testing.T) {
	cases := []struct {
		name string
		v1   string
		want Edit
	}{
		{
			"move",
			`{"op":"move","inst":"r1","x":100,"y":0}`,
			MoveTo("r1", 100, 0),
		},
		{
			"resize",
			`{"op":"resize","inst":"r1","cell":"DFF_X2"}`,
			Resize("r1", "DFF_X2"),
		},
		{
			"skew",
			`{"op":"skew","inst":"r1","skewPS":-12.5}`,
			Skew("r1", -12.5),
		},
		{
			"skew zero (omitted operand)",
			`{"op":"skew","inst":"r1"}`,
			Skew("r1", 0),
		},
		{
			"merge",
			`{"op":"merge","group":["a","b"],"name":"m","cell":"DFF2","x":5,"y":7}`,
			Edit{Merge: &MergeEdit{Group: []string{"a", "b"}, Name: "m", Cell: "DFF2", X: Coord(5), Y: Coord(7)}},
		},
		{
			"merge defaults",
			`{"op":"merge","group":["a","b"],"name":"m"}`,
			MergeGroup("m", "a", "b"),
		},
		{
			"split",
			`{"op":"split","inst":"m","cell":"DFF1"}`,
			Edit{Split: &SplitEdit{Inst: "m", Cell: "DFF1"}},
		},
		{
			"split defaults",
			`{"op":"split","inst":"m"}`,
			SplitInst("m"),
		},
		{
			"connect",
			`{"op":"connect","inst":"r1","pin":"D","bit":2,"net":"n1"}`,
			Edit{Connect: &ConnectEdit{Inst: "r1", Pin: "D", Bit: 2, Net: "n1"}},
		},
		{
			"disconnect",
			`{"op":"disconnect","inst":"r1","pin":"Q"}`,
			Edit{Disconnect: &DisconnectEdit{Inst: "r1", Pin: "Q"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got Edit
			if err := json.Unmarshal([]byte(tc.v1), &got); err != nil {
				t.Fatalf("decode v1: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("upgraded edit does not validate: %v", err)
			}
		})
	}
}

// TestEditV1DecodeRejectsUnknownOp pins rejection at decode time: a v1
// record with an op the upgrade table does not know could never have been
// journaled, so it is a decode error, not a deferred apply error.
func TestEditV1DecodeRejectsUnknownOp(t *testing.T) {
	for _, raw := range []string{
		`{"op":"frobnicate","inst":"r1"}`,
		`{"op":"","inst":"r1"}`,
	} {
		var e Edit
		err := json.Unmarshal([]byte(raw), &e)
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("decode %s: err = %v, want unknown-op rejection", raw, err)
		}
	}
}

// TestEditV2RoundTrip pins the v2 wire form: marshal emits the tagged
// envelope (never the v1 flat form) and decoding it reproduces the value.
func TestEditV2RoundTrip(t *testing.T) {
	edits := []Edit{
		MoveTo("r1", -3, 9),
		Resize("r1", "DFF_X4"),
		Skew("r2", 17),
		Edit{Merge: &MergeEdit{Group: []string{"a", "b", "c"}, Name: "m", X: Coord(0), Y: Coord(0)}},
		Edit{Split: &SplitEdit{Inst: "m", Cell: "DFF1"}},
		Edit{Connect: &ConnectEdit{Inst: "r1", Pin: "D", Net: "n"}},
		Edit{Disconnect: &DisconnectEdit{Inst: "r1", Pin: "D", Bit: 1}},
	}
	for _, e := range edits {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if strings.Contains(string(data), `"op"`) {
			t.Fatalf("marshal emitted a v1 record: %s", data)
		}
		if !strings.Contains(string(data), `"`+e.Op()+`"`) {
			t.Fatalf("marshal of %s edit lacks its tag: %s", e.Op(), data)
		}
		var got Edit
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("decode v2 %s: %v", data, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip %s: got %+v, want %+v", data, got, e)
		}
	}
}

// TestEditValidateMatrix pins every payload's wire-level shape checks plus
// the envelope rules (exactly one op).
func TestEditValidateMatrix(t *testing.T) {
	bad := []struct {
		name string
		e    Edit
	}{
		{"empty envelope", Edit{}},
		{"two ops", Edit{Skew: &SkewEdit{Inst: "r"}, Resize: &ResizeEdit{Inst: "r", Cell: "c"}}},
		{"move no inst", Edit{Move: &MoveEdit{X: Coord(1), Y: Coord(1)}}},
		{"move no x", Edit{Move: &MoveEdit{Inst: "r", Y: Coord(1)}}},
		{"move no y", Edit{Move: &MoveEdit{Inst: "r", X: Coord(1)}}},
		{"resize no inst", Edit{Resize: &ResizeEdit{Cell: "c"}}},
		{"resize no cell", Edit{Resize: &ResizeEdit{Inst: "r"}}},
		{"skew no inst", Edit{Skew: &SkewEdit{SkewPS: 1}}},
		{"merge short group", Edit{Merge: &MergeEdit{Group: []string{"a"}, Name: "m"}}},
		{"merge no name", Edit{Merge: &MergeEdit{Group: []string{"a", "b"}}}},
		{"merge lone x", Edit{Merge: &MergeEdit{Group: []string{"a", "b"}, Name: "m", X: Coord(1)}}},
		{"merge lone y", Edit{Merge: &MergeEdit{Group: []string{"a", "b"}, Name: "m", Y: Coord(1)}}},
		{"split no inst", Edit{Split: &SplitEdit{Cell: "c"}}},
		{"connect no inst", Edit{Connect: &ConnectEdit{Pin: "D", Net: "n"}}},
		{"connect no pin", Edit{Connect: &ConnectEdit{Inst: "r", Net: "n"}}},
		{"connect no net", Edit{Connect: &ConnectEdit{Inst: "r", Pin: "D"}}},
		{"connect negative bit", Edit{Connect: &ConnectEdit{Inst: "r", Pin: "D", Bit: -1, Net: "n"}}},
		{"disconnect no inst", Edit{Disconnect: &DisconnectEdit{Pin: "D"}}},
		{"disconnect no pin", Edit{Disconnect: &DisconnectEdit{Inst: "r"}}},
		{"disconnect negative bit", Edit{Disconnect: &DisconnectEdit{Inst: "r", Pin: "D", Bit: -1}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if tc.e.Validate() == nil {
				t.Fatalf("Validate accepted %+v", tc.e)
			}
		})
	}
	good := []Edit{
		MoveTo("r", 0, 0),
		Resize("r", "c"),
		Skew("r", 0),
		MergeGroup("m", "a", "b"),
		SplitInst("m"),
		Edit{Connect: &ConnectEdit{Inst: "r", Pin: "D", Net: "n"}},
		Edit{Disconnect: &DisconnectEdit{Inst: "r", Pin: "D"}},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Fatalf("Validate rejected %s edit: %v", e.Op(), err)
		}
	}
}

// TestEditCloneDoesNotAlias pins the journal-safety contract: mutating a
// clone's payloads must not reach the original.
func TestEditCloneDoesNotAlias(t *testing.T) {
	orig := Edit{Merge: &MergeEdit{Group: []string{"a", "b"}, Name: "m", X: Coord(1), Y: Coord(2)}}
	cl := orig.Clone()
	cl.Merge.Group[0] = "zz"
	cl.Merge.Name = "changed"
	*cl.Merge.X = 99
	if orig.Merge.Group[0] != "a" || orig.Merge.Name != "m" || *orig.Merge.X != 1 {
		t.Fatalf("clone aliases the original: %+v", orig.Merge)
	}

	mv := MoveTo("r", 5, 6)
	mc := mv.Clone()
	*mc.Move.X = -1
	if *mv.Move.X != 5 {
		t.Fatal("move clone aliases coordinates")
	}

	sp := SplitInst("m")
	sc := sp.Clone()
	sc.Split.Inst = "other"
	if sp.Split.Inst != "m" {
		t.Fatal("split clone aliases the payload")
	}
}

// TestEditOpTag pins the tag names — they are wire contract (the serve
// error envelope and the apply error text name ops by these strings).
func TestEditOpTag(t *testing.T) {
	cases := map[string]Edit{
		"move":       MoveTo("r", 0, 0),
		"resize":     Resize("r", "c"),
		"skew":       Skew("r", 0),
		"merge":      MergeGroup("m", "a", "b"),
		"split":      SplitInst("m"),
		"connect":    {Connect: &ConnectEdit{Inst: "r", Pin: "D", Net: "n"}},
		"disconnect": {Disconnect: &DisconnectEdit{Inst: "r", Pin: "D"}},
	}
	for want, e := range cases {
		if got := e.Op(); got != want {
			t.Fatalf("Op() = %q, want %q", got, want)
		}
	}
	if got := (Edit{}).Op(); got != "" {
		t.Fatalf("empty envelope Op() = %q, want empty", got)
	}
}

// FuzzEditDecode feeds arbitrary bytes to the edit envelope's decoder,
// which the composition server runs on every HTTP edit batch. Decoding
// must never panic, and any edit that decodes and validates must survive
// a round trip: its v2 encoding decodes, through the envelope decoder and
// through the plain tagged form alike, back to an equal edit.
func FuzzEditDecode(f *testing.F) {
	for _, seed := range []string{
		`{"op":"move","inst":"r1","x":100,"y":-4}`,
		`{"move":{"inst":"r1","x":100,"y":-4}}`,
		`{"op":"resize","inst":"r1","cell":"DFF_X2"}`,
		`{"resize":{"inst":"r1","cell":"DFF_X2"}}`,
		`{"op":"skew","inst":"r1","skewPS":-12.5}`,
		`{"skew":{"inst":"r1","skewPS":-12.5}}`,
		`{"op":"merge","group":["a","b"],"name":"m","cell":"DFF2","x":5,"y":7}`,
		`{"merge":{"group":["a","b","c"],"name":"m"}}`,
		`{"op":"split","inst":"m","cell":"DFF1"}`,
		`{"split":{"inst":"m"}}`,
		`{"op":"connect","inst":"r1","pin":"D","bit":2,"net":"n1"}`,
		`{"connect":{"inst":"r1","pin":"D","bit":2,"net":"n1"}}`,
		`{"op":"disconnect","inst":"r1","pin":"Q"}`,
		`{"disconnect":{"inst":"r1","pin":"Q","bit":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Edit
		if err := json.Unmarshal(data, &e); err != nil || e.Validate() != nil {
			return
		}
		enc, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		var got Edit
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Fatalf("decode re-encoded %s: %v", enc, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("round trip of %s via %s: got %+v, want %+v", data, enc, got, e)
		}
		var tagged editV2
		if err := json.Unmarshal(enc, &tagged); err != nil {
			t.Fatalf("decode %s as the v2 tagged form: %v", enc, err)
		}
		if !reflect.DeepEqual(Edit(tagged), e) {
			t.Fatalf("%s is not the v2 form of %+v", enc, e)
		}
	})
}

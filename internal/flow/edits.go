// Streamed edit application: the Session's write API. Edits arrive as
// small JSON-serializable records (the wire format of cmd/mbrserved's edit
// batches) and are applied through the netlist's tracked mutation methods,
// so every retained engine picks the change up on its delta path. Edits
// reference instances, nets and cells by name — names are stable across
// serialize/reload round trips, instance IDs are not.
//
// Wire format v2: an Edit is an envelope holding exactly one tagged
// per-op payload ({"move": {...}}, {"split": {...}}, ...), each with its
// own Validate. The v1 flat form ({"op": "move", "inst": ..., ...}) is
// still decoded — existing serve journals and snapshots restore
// bit-identically — but encoding always emits v2.
package flow

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
)

// MoveEdit repositions an instance. X and Y are pointers so absent and
// zero are distinct on the wire; both are required (see Validate).
type MoveEdit struct {
	Inst string `json:"inst"`
	X    *int64 `json:"x"`
	Y    *int64 `json:"y"`
}

// Validate checks the payload's wire-level shape.
func (e *MoveEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("move needs an instance name")
	}
	if e.X == nil || e.Y == nil {
		return fmt.Errorf("move needs both x and y")
	}
	return nil
}

// ResizeEdit swaps a register's cell for a same-class same-width
// alternate.
type ResizeEdit struct {
	Inst string `json:"inst"`
	Cell string `json:"cell"`
}

// Validate checks the payload's wire-level shape.
func (e *ResizeEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("resize needs an instance name")
	}
	if e.Cell == "" {
		return fmt.Errorf("resize needs a cell name")
	}
	return nil
}

// SkewEdit assigns useful clock skew to a register.
type SkewEdit struct {
	Inst   string  `json:"inst"`
	SkewPS float64 `json:"skewPS"`
}

// Validate checks the payload's wire-level shape.
func (e *SkewEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("skew needs an instance name")
	}
	return nil
}

// MergeEdit merges the named registers into one MBR. Cell is optional
// (the smallest fitting width of the first member's class); X/Y are
// optional together (default: group centroid snapped to the site grid).
type MergeEdit struct {
	Group []string `json:"group"`
	Name  string   `json:"name"`
	Cell  string   `json:"cell,omitempty"`
	X     *int64   `json:"x,omitempty"`
	Y     *int64   `json:"y,omitempty"`
}

// Validate checks the payload's wire-level shape.
func (e *MergeEdit) Validate() error {
	if len(e.Group) < 2 {
		return fmt.Errorf("merge needs >= 2 group members")
	}
	if e.Name == "" {
		return fmt.Errorf("merge needs a name for the MBR")
	}
	if (e.X == nil) != (e.Y == nil) {
		return fmt.Errorf("merge position needs both x and y")
	}
	return nil
}

// SplitEdit decomposes a multi-bit register into per-bit instances named
// <inst>_b<bit> (the exact inverse of a merge). Cell is optional: the
// 1-bit cell of the register's class at its drive strength.
type SplitEdit struct {
	Inst string `json:"inst"`
	Cell string `json:"cell,omitempty"`
}

// Validate checks the payload's wire-level shape.
func (e *SplitEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("split needs an instance name")
	}
	return nil
}

// ConnectEdit attaches a pin to a net.
type ConnectEdit struct {
	Inst string `json:"inst"`
	Pin  string `json:"pin"`
	Bit  int    `json:"bit,omitempty"`
	Net  string `json:"net"`
}

// Validate checks the payload's wire-level shape.
func (e *ConnectEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("connect needs an instance name")
	}
	if e.Pin == "" {
		return fmt.Errorf("connect needs a pin kind")
	}
	if e.Bit < 0 {
		return fmt.Errorf("connect bit must be >= 0")
	}
	if e.Net == "" {
		return fmt.Errorf("connect needs a net name")
	}
	return nil
}

// DisconnectEdit detaches a pin from its net.
type DisconnectEdit struct {
	Inst string `json:"inst"`
	Pin  string `json:"pin"`
	Bit  int    `json:"bit,omitempty"`
}

// Validate checks the payload's wire-level shape.
func (e *DisconnectEdit) Validate() error {
	if e.Inst == "" {
		return fmt.Errorf("disconnect needs an instance name")
	}
	if e.Pin == "" {
		return fmt.Errorf("disconnect needs a pin kind")
	}
	if e.Bit < 0 {
		return fmt.Errorf("disconnect bit must be >= 0")
	}
	return nil
}

// Edit is one streamed design edit: an envelope with exactly one op
// payload set. Construct with the helpers (MoveTo, Resize, ...) or by
// setting one field; Validate rejects empty and ambiguous envelopes.
type Edit struct {
	Move       *MoveEdit       `json:"move,omitempty"`
	Resize     *ResizeEdit     `json:"resize,omitempty"`
	Skew       *SkewEdit       `json:"skew,omitempty"`
	Merge      *MergeEdit      `json:"merge,omitempty"`
	Split      *SplitEdit      `json:"split,omitempty"`
	Connect    *ConnectEdit    `json:"connect,omitempty"`
	Disconnect *DisconnectEdit `json:"disconnect,omitempty"`
}

// MoveTo builds a move edit.
func MoveTo(inst string, x, y int64) Edit {
	return Edit{Move: &MoveEdit{Inst: inst, X: &x, Y: &y}}
}

// Resize builds a resize edit.
func Resize(inst, cell string) Edit {
	return Edit{Resize: &ResizeEdit{Inst: inst, Cell: cell}}
}

// Skew builds a skew edit.
func Skew(inst string, ps float64) Edit {
	return Edit{Skew: &SkewEdit{Inst: inst, SkewPS: ps}}
}

// MergeGroup builds a merge edit with defaulted cell and position.
func MergeGroup(name string, group ...string) Edit {
	return Edit{Merge: &MergeEdit{Name: name, Group: group}}
}

// SplitInst builds a split edit with the defaulted 1-bit cell.
func SplitInst(inst string) Edit {
	return Edit{Split: &SplitEdit{Inst: inst}}
}

// Coord wraps a coordinate value for the optional X/Y pointer fields.
func Coord(v int64) *int64 { return &v }

// Op returns the envelope's operation tag ("move", "split", ...), or ""
// when no payload is set. Ambiguous envelopes report the first set tag;
// Validate rejects them.
func (e Edit) Op() string {
	switch {
	case e.Move != nil:
		return "move"
	case e.Resize != nil:
		return "resize"
	case e.Skew != nil:
		return "skew"
	case e.Merge != nil:
		return "merge"
	case e.Split != nil:
		return "split"
	case e.Connect != nil:
		return "connect"
	case e.Disconnect != nil:
		return "disconnect"
	}
	return ""
}

// Validate checks the envelope holds exactly one payload and that the
// payload's wire-level shape is complete. Semantic checks (the instance
// exists, the cell fits, the group is scan-compatible) happen at apply
// time against the design.
func (e Edit) Validate() error {
	n := 0
	var err error
	for _, p := range []struct {
		set bool
		v   interface{ Validate() error }
	}{
		{e.Move != nil, e.Move},
		{e.Resize != nil, e.Resize},
		{e.Skew != nil, e.Skew},
		{e.Merge != nil, e.Merge},
		{e.Split != nil, e.Split},
		{e.Connect != nil, e.Connect},
		{e.Disconnect != nil, e.Disconnect},
	} {
		if p.set {
			n++
			err = p.v.Validate()
		}
	}
	switch {
	case n == 0:
		return fmt.Errorf("edit has no operation (unknown op?)")
	case n > 1:
		return fmt.Errorf("edit sets %d operations, want exactly 1", n)
	}
	return err
}

// Clone deep-copies the edit (the payloads are pointers; journals must
// not alias caller-owned memory).
func (e Edit) Clone() Edit {
	var out Edit
	if e.Move != nil {
		m := *e.Move
		m.X, m.Y = cloneCoord(m.X), cloneCoord(m.Y)
		out.Move = &m
	}
	if e.Resize != nil {
		r := *e.Resize
		out.Resize = &r
	}
	if e.Skew != nil {
		s := *e.Skew
		out.Skew = &s
	}
	if e.Merge != nil {
		m := *e.Merge
		m.Group = append([]string(nil), m.Group...)
		m.X, m.Y = cloneCoord(m.X), cloneCoord(m.Y)
		out.Merge = &m
	}
	if e.Split != nil {
		s := *e.Split
		out.Split = &s
	}
	if e.Connect != nil {
		c := *e.Connect
		out.Connect = &c
	}
	if e.Disconnect != nil {
		d := *e.Disconnect
		out.Disconnect = &d
	}
	return out
}

func cloneCoord(p *int64) *int64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// editV1 is the retired flat wire form: Op selected the operation, the
// remaining fields were operands. Decoded for journal/snapshot
// compatibility; never emitted.
type editV1 struct {
	Op     string   `json:"op"`
	Inst   string   `json:"inst,omitempty"`
	X      *int64   `json:"x,omitempty"`
	Y      *int64   `json:"y,omitempty"`
	Cell   string   `json:"cell,omitempty"`
	SkewPS float64  `json:"skewPS,omitempty"`
	Group  []string `json:"group,omitempty"`
	Name   string   `json:"name,omitempty"`
	Net    string   `json:"net,omitempty"`
	Pin    string   `json:"pin,omitempty"`
	Bit    int      `json:"bit,omitempty"`
}

// editV2 mirrors Edit without methods, so the custom decoder below can use
// the stock struct decoding for the tagged form.
type editV2 struct {
	Move       *MoveEdit       `json:"move,omitempty"`
	Resize     *ResizeEdit     `json:"resize,omitempty"`
	Skew       *SkewEdit       `json:"skew,omitempty"`
	Merge      *MergeEdit      `json:"merge,omitempty"`
	Split      *SplitEdit      `json:"split,omitempty"`
	Connect    *ConnectEdit    `json:"connect,omitempty"`
	Disconnect *DisconnectEdit `json:"disconnect,omitempty"`
}

// UnmarshalJSON decodes the v2 tagged form, falling back to the v1 flat
// form when an "op" key is present — v1 serve journals and snapshots
// restore bit-identically. A v1 record with an unknown op is rejected at
// decode time (it could never have been journaled).
func (e *Edit) UnmarshalJSON(data []byte) error {
	var probe struct {
		Op *string `json:"op"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return err
	}
	if probe.Op != nil {
		var v1 editV1
		if err := json.Unmarshal(data, &v1); err != nil {
			return err
		}
		dec, err := v1.upgrade()
		if err != nil {
			return err
		}
		*e = dec
		return nil
	}
	var v2 editV2
	if err := json.Unmarshal(data, &v2); err != nil {
		return err
	}
	*e = Edit(v2)
	return nil
}

// upgrade maps a v1 flat record onto the v2 envelope.
func (v editV1) upgrade() (Edit, error) {
	switch v.Op {
	case "move":
		return Edit{Move: &MoveEdit{Inst: v.Inst, X: v.X, Y: v.Y}}, nil
	case "resize":
		return Edit{Resize: &ResizeEdit{Inst: v.Inst, Cell: v.Cell}}, nil
	case "skew":
		return Edit{Skew: &SkewEdit{Inst: v.Inst, SkewPS: v.SkewPS}}, nil
	case "merge":
		return Edit{Merge: &MergeEdit{Group: v.Group, Name: v.Name, Cell: v.Cell, X: v.X, Y: v.Y}}, nil
	case "split":
		return Edit{Split: &SplitEdit{Inst: v.Inst, Cell: v.Cell}}, nil
	case "connect":
		return Edit{Connect: &ConnectEdit{Inst: v.Inst, Pin: v.Pin, Bit: v.Bit, Net: v.Net}}, nil
	case "disconnect":
		return Edit{Disconnect: &DisconnectEdit{Inst: v.Inst, Pin: v.Pin, Bit: v.Bit}}, nil
	}
	return Edit{}, fmt.Errorf("flow: unknown op %q in v1 edit record", v.Op)
}

// ApplyResult reports what an edit batch did.
type ApplyResult struct {
	// Applied counts the edits applied, which on error is the index of the
	// edit that failed: everything before it took effect (batches are not
	// transactional), everything from it on did not.
	Applied int `json:"applied"`
	// Merged names the MBR instances merge edits created, in batch order.
	Merged []string `json:"merged,omitempty"`
	// Split names the registers split edits decomposed, in batch order.
	Split []string `json:"split,omitempty"`
	// Epoch is the design's edit epoch after the batch.
	Epoch uint64 `json:"epoch"`
}

// pinKinds maps the wire names of pin kinds (the PinKind String forms) to
// their values.
var pinKinds = map[string]netlist.PinKind{
	"D": netlist.PinData, "Q": netlist.PinOut, "CK": netlist.PinClock,
	"RST": netlist.PinReset, "EN": netlist.PinEnable,
	"SI": netlist.PinScanIn, "SO": netlist.PinScanOut, "SE": netlist.PinScanEnable,
}

// Apply applies an edit batch in order through the netlist's tracked
// mutation methods. On the first failing edit it stops and returns the
// error with the already-applied prefix recorded in the result; the
// journal-keeping caller (internal/serve) persists exactly that prefix so
// a replay reproduces the design state bit-for-bit.
func (s *Session) Apply(edits []Edit) (*ApplyResult, error) {
	res := &ApplyResult{}
	if s.closed {
		return res, fmt.Errorf("flow: session closed")
	}
	for i, e := range edits {
		if err := s.applyEdit(e, res); err != nil {
			res.Applied = i
			res.Epoch = s.d.Epoch()
			op := e.Op()
			if op == "" {
				op = "none"
			}
			return res, fmt.Errorf("flow: edit %d (%s): %w", i, op, err)
		}
	}
	res.Applied = len(edits)
	res.Epoch = s.d.Epoch()
	return res, nil
}

func (s *Session) applyEdit(e Edit, res *ApplyResult) error {
	// Wire-level shape first: exactly one op, payload complete. Everything
	// after this dispatches on the one set payload.
	if err := e.Validate(); err != nil {
		return err
	}
	switch {
	case e.Move != nil:
		in, err := s.liveInst(e.Move.Inst)
		if err != nil {
			return err
		}
		if in.Fixed {
			return fmt.Errorf("instance %q is fixed", e.Move.Inst)
		}
		s.d.MoveInst(in, geom.Point{X: *e.Move.X, Y: *e.Move.Y})
		return nil

	case e.Resize != nil:
		in, err := s.liveInst(e.Resize.Inst)
		if err != nil {
			return err
		}
		cell := s.d.Lib.CellByName(e.Resize.Cell)
		if cell == nil {
			return fmt.Errorf("unknown cell %q", e.Resize.Cell)
		}
		return s.d.ResizeRegister(in, cell)

	case e.Skew != nil:
		in, err := s.liveInst(e.Skew.Inst)
		if err != nil {
			return err
		}
		if in.Kind != netlist.KindReg {
			return fmt.Errorf("instance %q is not a register", e.Skew.Inst)
		}
		// Skew feeds the retained timing engine directly, not the netlist;
		// the engine records the register for its next incremental run, so
		// no touched-record entry is needed.
		s.engs.sta.SetSkew(in.ID, e.Skew.SkewPS)
		return nil

	case e.Merge != nil:
		return s.applyMerge(e.Merge, res)

	case e.Split != nil:
		return s.applySplit(e.Split, res)

	case e.Connect != nil:
		p, err := s.findPin(e.Connect.Inst, e.Connect.Pin, e.Connect.Bit)
		if err != nil {
			return err
		}
		var net *netlist.Net
		s.d.Nets(func(n *netlist.Net) {
			if n.Name == e.Connect.Net {
				net = n
			}
		})
		if net == nil {
			return fmt.Errorf("unknown net %q", e.Connect.Net)
		}
		if p.Dir == netlist.DirOut && net.Driver != netlist.NoID && net.Driver != p.ID {
			return fmt.Errorf("net %q already driven", e.Connect.Net)
		}
		s.d.Connect(p, net)
		return nil

	case e.Disconnect != nil:
		p, err := s.findPin(e.Disconnect.Inst, e.Disconnect.Pin, e.Disconnect.Bit)
		if err != nil {
			return err
		}
		s.d.Disconnect(p)
		return nil
	}
	return fmt.Errorf("edit has no operation")
}

// applyMerge merges the named registers into one MBR through core.Bank,
// the bank step composition's commit and RestorePass share: every check
// before the first mutation, scan merge order, clock pins released to the
// domain root, scan plan updated. The new MBR is legalized incrementally.
// A rejected merge edit leaves no trace, which the journal-keeping caller
// (internal/serve) depends on: it journals only applied edits, so any
// surviving mutation would make snapshot replay diverge.
func (s *Session) applyMerge(e *MergeEdit, res *ApplyResult) error {
	group := make([]*netlist.Inst, len(e.Group))
	bits := 0
	for i, name := range e.Group {
		in, err := s.liveInst(name)
		if err != nil {
			return err
		}
		group[i] = in
		bits += in.Bits()
	}
	// Cell: explicit, or the smallest fitting width of the first member's
	// class at its drive strength.
	cell := s.d.Lib.CellByName(e.Cell)
	if e.Cell != "" && cell == nil {
		return fmt.Errorf("unknown cell %q", e.Cell)
	}
	if cell == nil {
		first := group[0].RegCell
		if first == nil {
			return fmt.Errorf("group member %q is not a register", e.Group[0])
		}
		var err error
		if cell, err = fitCell(s.d.Lib, first.Class, bits, first.DriveRes); err != nil {
			return err
		}
	}
	// Position: explicit (both coordinates — zero is a real position), or
	// the group centroid snapped to the site grid.
	pos := centroid(s.d, group)
	if e.X != nil && e.Y != nil {
		pos = geom.Point{X: *e.X, Y: *e.Y}
	}
	mr, err := core.Bank(s.d, s.plan, s.engs.cts.ReleaseClocks, group, cell, e.Name, pos)
	if err != nil {
		return err
	}
	place.LegalizeIncremental(s.d, []*netlist.Inst{mr.MBR})
	res.Merged = append(res.Merged, mr.MBR.Name)
	return nil
}

// applySplit decomposes the named register into per-bit instances through
// core.Debank, the debank step the decompose pass shares; a rejected split
// edit leaves no trace. The new bits inherit the original's clock-tree
// leaf net, which the retained tree engine adopts on its delta path (no
// clock release needed), and are legalized incrementally like a merge's
// MBR.
func (s *Session) applySplit(e *SplitEdit, res *ApplyResult) error {
	in, err := s.liveInst(e.Inst)
	if err != nil {
		return err
	}
	cell := s.d.Lib.CellByName(e.Cell)
	if e.Cell != "" && cell == nil {
		return fmt.Errorf("unknown cell %q", e.Cell)
	}
	name := in.Name
	parts, err := core.Debank(s.d, s.plan, in, cell)
	if err != nil {
		return err
	}
	place.LegalizeIncremental(s.d, parts)
	res.Split = append(res.Split, name)
	return nil
}

// fitCell returns the cell of class at the smallest library width that
// holds bits, at drive strength driveRes (lib.SelectCell's §4.1 rule). The
// width is one of the class's own, so SelectCell always finds a cell.
func fitCell(l *lib.Library, class lib.FuncClass, bits int, driveRes float64) (*lib.Cell, error) {
	width, ok := l.SmallestWidthAtLeast(class, bits)
	if !ok {
		return nil, fmt.Errorf("no %s cell fits %d bits", class.Key(), bits)
	}
	return l.SelectCell(class, width, driveRes), nil
}

// centroid returns the mean position of insts snapped down to the site
// grid.
func centroid(d *netlist.Design, insts []*netlist.Inst) geom.Point {
	var sx, sy int64
	for _, in := range insts {
		sx += in.Pos.X
		sy += in.Pos.Y
	}
	n := int64(len(insts))
	return geom.Point{
		X: d.Core.Lo.X + ((sx/n-d.Core.Lo.X)/d.SiteW)*d.SiteW,
		Y: d.Core.Lo.Y + ((sy/n-d.Core.Lo.Y)/d.RowH)*d.RowH,
	}
}

func (s *Session) liveInst(name string) (*netlist.Inst, error) {
	if name == "" {
		return nil, fmt.Errorf("missing instance name")
	}
	in := s.d.InstByName(name)
	if in == nil {
		return nil, fmt.Errorf("unknown instance %q", name)
	}
	return in, nil
}

func (s *Session) findPin(inst, pin string, bit int) (*netlist.Pin, error) {
	in, err := s.liveInst(inst)
	if err != nil {
		return nil, err
	}
	kind, ok := pinKinds[pin]
	if !ok {
		return nil, fmt.Errorf("unknown pin kind %q", pin)
	}
	p := s.d.FindPin(in, kind, bit)
	if p == nil {
		return nil, fmt.Errorf("no %s[%d] pin on %q", pin, bit, inst)
	}
	return p, nil
}

package netlist

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

// A reset leaves older cursors incomplete and tracks every edit after it.
func TestResetTouchedLog(t *testing.T) {
	d, r1, r2 := buildPair(t)
	before := d.Epoch()
	d.MoveInst(r1, geom.Point{X: 2000, Y: 1200})
	d.ResetTouchedLog()
	at := d.Epoch()
	d.WithEditClass(EditClassCTS, func() { d.MoveInst(r2, geom.Point{X: 4000, Y: 1200}) })
	for _, c := range []EditClass{EditClassFlow, EditClassCTS} {
		if got, ok := d.TouchedSinceClass(before, c, nil); ok || len(got) != 0 {
			t.Fatalf("class %d: pre-reset cursor reads %v, %v; want nothing, incomplete", c, got, ok)
		}
	}
	if got, ok := d.TouchedSinceClass(at, EditClassFlow, nil); !ok || len(got) != 0 {
		t.Fatalf("flow record after reset = %v, %v; want empty, complete", got, ok)
	}
	if got, ok := d.TouchedSinceClass(at, EditClassCTS, nil); !ok || len(got) != 1 || got[0] != r2.ID {
		t.Fatalf("CTS record after reset = %v, %v; want [%d], complete", got, ok, r2.ID)
	}
}

// A read into a buffer with room allocates nothing.
func TestTouchedSinceClassAllocatesNothing(t *testing.T) {
	d, r1, r2 := buildPair(t)
	cursor := d.Epoch()
	for i := 0; i < 100; i++ {
		d.MoveInst([]*Inst{r1, r2}[i%2], geom.Point{X: int64(1000 + i), Y: 1200})
	}
	buf := make([]InstID, 0, 2)
	allocs := testing.AllocsPerRun(20, func() {
		var ok bool
		if buf, ok = d.TouchedSinceClass(cursor, EditClassFlow, buf[:0]); !ok || len(buf) != 2 {
			t.Fatalf("read = %v, %v; want 2 instances, complete", buf, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("a read into a warmed buffer allocates %v times, want 0", allocs)
	}
}

// Reads write nothing but their buffers: concurrent readers of both
// classes get the sequential answers (run under -race).
func TestTouchedSinceClassConcurrentReaders(t *testing.T) {
	d, r1, r2 := buildPair(t)
	for i := 0; i < 50; i++ {
		d.WithEditClass(EditClass(i%3/2), func() {
			d.MoveInst([]*Inst{r1, r2}[i%2], geom.Point{X: int64(1000 + i), Y: 1200})
		})
	}
	want := make([][]InstID, 2*(d.Epoch()+1))
	for c := EditClass(0); c < numEditClasses; c++ {
		for cur := uint64(0); cur <= d.Epoch(); cur++ {
			want[2*cur+uint64(c)], _ = d.TouchedSinceClass(cur, c, nil)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []InstID
			for c := EditClass(0); c < numEditClasses; c++ {
				for cur := uint64(0); cur <= d.Epoch(); cur++ {
					if buf, _ = d.TouchedSinceClass(cur, c, buf[:0]); !slices.Equal(buf, want[2*cur+uint64(c)]) {
						t.Errorf("class %d cursor %d: concurrent read %v, sequential %v", c, cur, buf, want[2*cur+uint64(c)])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// touchOracle is the brute-force record: every touch in order, replayed
// newest first with a set at each read.
type touchOracle struct {
	touches []touchedEntry
	class   []EditClass
	reset   uint64
}

func (o *touchOracle) read(cursor uint64, c EditClass) ([]InstID, bool) {
	if cursor < o.reset {
		return nil, false
	}
	var out []InstID
	seen := map[InstID]bool{}
	for i := len(o.touches) - 1; i >= 0 && o.touches[i].epoch > cursor; i-- {
		if id := o.touches[i].inst; o.class[i] == c && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, true
}

// check compares the record with the oracle at every cursor from 0 to the
// current epoch, in both classes, and checks the record's own bounds.
func (o *touchOracle) check(t *testing.T, d *Design) {
	t.Helper()
	var buf []InstID
	for c := EditClass(0); c < numEditClasses; c++ {
		for cursor := uint64(0); cursor <= d.Epoch(); cursor++ {
			want, wantOK := o.read(cursor, c)
			var ok bool
			buf, ok = d.TouchedSinceClass(cursor, c, buf[:0])
			if ok != wantOK || !slices.Equal(buf, want) {
				t.Fatalf("class %d cursor %d (epoch %d): read %v, %v; replay %v, %v",
					c, cursor, d.Epoch(), buf, ok, want, wantOK)
			}
		}
		r := &d.edits.records[c]
		liveIDs := 0
		for _, e := range r.last {
			if e != 0 {
				liveIDs++
			}
		}
		if len(r.ents)-r.stale != liveIDs || 2*r.stale > len(r.ents) {
			t.Fatalf("class %d: %d entries, %d stale, %d instances touched", c, len(r.ents), r.stale, liveIDs)
		}
	}
}

// FuzzTouchedRecordMatchesOracle drives the touched record with moves,
// bursts on one instance, removals and additions under both edit classes,
// and resets, then checks every cursor's read against a brute-force replay.
// Each op touches one instance, so every epoch step it takes is that
// instance's touch. The ops cross compaction many times over.
func FuzzTouchedRecordMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba})
	f.Add([]byte{0x15, 0x25, 0x06, 0x35, 0x45, 0x14, 0x55, 0x65, 0x75, 0x85, 0x02, 0x12, 0x22, 0x03, 0x13})
	f.Add([]byte{0xff, 0x0f, 0xf0, 0x5a, 0xa5, 0x3c, 0xc3, 0x96, 0x69, 0x11, 0x22, 0x44, 0x88})
	// Moves round four of the six instances, so the build's entries of the
	// other two stay live through compaction, some under the other class,
	// then a reset and more of the same.
	var round []byte
	for i := 0; i < 96; i++ {
		round = append(round, byte(i%4)<<4|[]byte{0, 0, 6, 0, 1, 0, 2, 3}[i%8])
		if i == 60 {
			round = append(round, 0x05, 0x54)
		}
	}
	f.Add(round)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		d := newTestDesign()
		o := &touchOracle{}
		// noted records every epoch step since from as a touch of id.
		noted := func(from uint64, id InstID, class EditClass) {
			for e := from + 1; e <= d.Epoch(); e++ {
				o.touches = append(o.touches, touchedEntry{epoch: e, inst: id})
				o.class = append(o.class, class)
			}
		}
		cell := cellOf(t, 1)
		var regs []*Inst
		add := func() *Inst {
			from := d.Epoch()
			in, err := d.AddRegister(fmt.Sprintf("r%d", d.InstSpace()), cell, geom.Point{X: 1000, Y: 1200})
			if err != nil {
				t.Fatal(err)
			}
			noted(from, in.ID, d.EditClass())
			regs = append(regs, in)
			return in
		}
		for i := 0; i < 6; i++ {
			add()
		}
		live := func(in *Inst) bool { return d.Inst(in.ID) != nil }
		for step, op := range ops {
			in := regs[int(op>>4)%len(regs)]
			from, class := d.Epoch(), d.EditClass()
			switch op & 7 {
			case 0, 1: // a move
				if live(in) {
					d.MoveInst(in, geom.Point{X: in.Pos.X + 1, Y: in.Pos.Y})
				}
			case 2: // a burst on one instance
				for k := 0; k < int(op>>4)+2 && live(in); k++ {
					d.MoveInst(in, geom.Point{X: in.Pos.X + 1, Y: in.Pos.Y})
				}
			case 3:
				d.SetEditClass(EditClassCTS - class)
			case 4: // a removal, or a new instance once this one is gone
				if !live(in) {
					add()
					continue
				}
				d.RemoveInst(in)
			case 5:
				if op>>4 < 4 {
					o.check(t, d)
					d.ResetTouchedLog()
					o.reset = d.Epoch()
				}
			default: // a move under the other class
				class = EditClassCTS - class
				d.WithEditClass(class, func() {
					if live(in) {
						d.MoveInst(in, geom.Point{X: in.Pos.X, Y: in.Pos.Y + 1})
					}
				})
			}
			// Every epoch step the op took is a touch of its one instance.
			noted(from, in.ID, class)
			if step%64 == 63 {
				o.check(t, d)
			}
		}
		o.check(t, d)
	})
}

package sta

import (
	"repro/internal/netlist"
)

// The slack log is the engine's outward-facing dirty-node feed: a bounded
// ring of register instances whose D/Q pin slacks changed, stamped with the
// run that changed them. Consumers that cache per-register timing data
// (the compatibility-graph node phase) read the ring with a cursor instead
// of re-deriving every register's slacks after each run, mirroring the
// netlist's touched-instance log. Incremental runs derive the entries from
// the re-propagated cone (the slack-dirty worklist); full runs diff the new
// slack array against the previous run's. Either way an entry is recorded
// only when a pin's slack *value* changed, so the feed is exact, not
// conservative. When the ring overflows — or after the first run, when
// there is no previous state to diff against — the log resets and reports
// itself incomplete, and consumers fall back to their own full recompute.

// defaultSlackLogCap bounds the slack log ring. Matches the netlist
// touched-log default: far above any ≤1%-edit cone, far below design size.
const defaultSlackLogCap = 4096

type slackEntry struct {
	seq uint64
	id  netlist.InstID
}

type slackLog struct {
	seq   uint64 // sequence number of the most recent completed run
	base  uint64 // ring holds the complete history for cursors >= base
	ring  []slackEntry
	noted map[netlist.InstID]uint64 // per-run dedup: last seq an inst was noted
}

// note records a register whose slack changed during run seq.
func (l *slackLog) note(id netlist.InstID, seq uint64) {
	if l.noted == nil {
		l.noted = map[netlist.InstID]uint64{}
	}
	if l.noted[id] == seq {
		return
	}
	l.noted[id] = seq
	if len(l.ring) >= defaultSlackLogCap {
		l.reset(seq)
		return
	}
	l.ring = append(l.ring, slackEntry{seq: seq, id: id})
}

// reset drops the ring; history is complete only from seq onward.
func (l *slackLog) reset(seq uint64) {
	l.ring = l.ring[:0]
	l.base = seq
}

// SlackSeq returns the monotonic count of completed Run calls; pass it to
// RegsWithChangedSlack as the cursor for a later read.
func (e *Engine) SlackSeq() uint64 { return e.slog.seq }

// RegsWithChangedSlack returns the registers whose D/Q pin slacks changed
// in any run after the cursor (a past SlackSeq value). The second result
// reports whether the log covers the whole interval; when false (first
// run, engine invalidation, or ring overflow) the caller must fall back to
// recomputing its per-register state from scratch. Entries may repeat
// across runs; callers dedup. The returned slice aliases the engine's ring
// — read it before the next Run.
func (e *Engine) RegsWithChangedSlack(cursor uint64) ([]netlist.InstID, bool) {
	l := &e.slog
	if cursor < l.base {
		return nil, false
	}
	if cursor >= l.seq {
		return nil, true
	}
	// Entries are appended in run order; find the first past the cursor.
	lo, hi := 0, len(l.ring)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.ring[mid].seq <= cursor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	out := make([]netlist.InstID, 0, len(l.ring)-lo)
	for _, en := range l.ring[lo:] {
		out = append(out, en.id)
	}
	return out, true
}

// noteSlackPin records the pin's owning instance in the slack log when it
// is a register (only registers carry retained per-node timing data).
func (e *Engine) noteSlackPin(v int32, seq uint64) {
	p := e.d.Pin(netlist.PinID(v))
	if p == nil {
		return
	}
	if in := e.d.Inst(p.Inst); in != nil && in.Kind == netlist.KindReg {
		e.slog.note(in.ID, seq)
	}
}

// diffSlackRegs compares the freshly computed slack array against the
// previous run's, logging every register with a changed pin slack. Used on
// full runs, where no worklist tells us what moved; the pass is O(pins),
// which the full path already is.
func (e *Engine) diffSlackRegs(prev []float64, seq uint64) {
	n := len(e.slack)
	for i := 0; i < n; i++ {
		if i >= len(prev) || e.slack[i] != prev[i] {
			e.noteSlackPin(int32(i), seq)
		}
	}
}

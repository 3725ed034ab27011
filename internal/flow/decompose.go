// Slack-driven MBR decomposition: the inverse pass that closes the
// bank/debank loop. Where composition merges compatible registers into
// MBRs, decomposition selects merged registers whose slack a later stage
// degraded — victims come from the retained STA engine's changed-slack
// feed, worst cones first — and splits them back into single-bit
// registers so the next composition pass can regroup their bits with
// better neighbours. The debank-all behavior (split every max-width MBR
// before the first compose, the paper's §5 future-work idea) is the All
// preset of the same pass.
package flow

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/scan"
	"repro/internal/sta"
)

// DecomposeConfig selects the decomposition pass's victims.
type DecomposeConfig struct {
	// Budget bounds how many MBRs one pass may split. 0 with All unset
	// disables the pass.
	Budget int `json:"budget,omitempty"`
	// SlackThresholdPS admits only registers whose worst D/Q pin slack is
	// below this value (0 = only violating registers, the WNS cones).
	SlackThresholdPS float64 `json:"slackThresholdPS,omitempty"`
	// All ignores Budget and the slack rule and splits every movable
	// register at its class's maximum library width — the debank-all
	// preset, most useful before a first compose on designs already rich
	// in max-width MBRs (the D4 situation).
	All bool `json:"all,omitempty"`
}

// enabled reports whether the pass would do anything.
func (c DecomposeConfig) enabled() bool { return c.All || c.Budget > 0 }

// DecomposeResult reports one decomposition pass.
type DecomposeResult struct {
	// Victims names the decomposed registers, worst slack first.
	Victims []string
	// Parts counts the single-bit registers created.
	Parts int
	// RegsBefore/RegsAfter is the register count around the pass.
	RegsBefore int
	RegsAfter  int
	// FromSlackFeed reports whether victim selection ran on the STA
	// engine's changed-slack feed (false: full register scan — first pass,
	// feed overflow, or the All preset).
	FromSlackFeed bool
}

// splitGroup remembers one decomposed MBR so leftover bits can be
// restored after recomposition.
type splitGroup struct {
	class    lib.FuncClass
	driveRes float64
	parts    []netlist.InstID
}

// DecomposePass runs one slack-driven decomposition pass with the
// session's configured budget (Config.Decompose). Victims are selected
// from the retained STA engine's changed-slack feed under ideal clocks
// (the composition stage's timing view), worst slack first; each is split
// into single-bit registers that stay on the MBR's footprint so the next
// composition pass sees them as the tight clean group they are. Leftover
// bits a later composition does not re-merge are restored by RestorePass.
func (s *Session) DecomposePass() (*DecomposeResult, error) {
	return s.DecomposePassWith(s.cfg.Decompose)
}

// DecomposePassWith is DecomposePass with an explicit config, the form the
// composition server journals (replay must reproduce the exact pass).
func (s *Session) DecomposePassWith(dcfg DecomposeConfig) (*DecomposeResult, error) {
	if s.closed {
		return nil, fmt.Errorf("flow: session closed")
	}
	if !dcfg.enabled() {
		return nil, fmt.Errorf("flow: decompose: config selects no victims (zero budget)")
	}
	s.engs.sta.SetIdealClocks(true)
	defer s.engs.sta.SetIdealClocks(false)
	return s.decomposePass(dcfg)
}

// decomposePass selects victims and splits them. The caller owns the STA
// clock mode (Run and the public wrappers set ideal clocks, matching the
// composition stage's timing view).
func (s *Session) decomposePass(dcfg DecomposeConfig) (*DecomposeResult, error) {
	d, plan := s.d, s.plan
	res := &DecomposeResult{RegsBefore: len(d.Registers())}

	var victims []*netlist.Inst
	if dcfg.All {
		victims = maxWidthVictims(d)
	} else {
		tres, err := s.engs.sta.Run()
		if err != nil {
			return nil, err
		}
		victims, res.FromSlackFeed = s.slackVictims(dcfg, tres)
	}
	s.slackCursor = s.engs.sta.SlackSeq()

	for _, r := range victims {
		cell := d.Lib.SelectCell(r.RegCell.Class, 1, r.RegCell.DriveRes)
		origID, origName := r.ID, r.Name
		class, drive := r.RegCell.Class, r.RegCell.DriveRes
		parts, err := d.SplitRegister(r, cell)
		if err != nil {
			return nil, err
		}
		ids := make([]netlist.InstID, len(parts))
		for i, p := range parts {
			ids[i] = p.ID
		}
		if plan != nil {
			if err := plan.ApplySplit(origID, ids); err != nil {
				return nil, err
			}
		}
		s.splitGroups = append(s.splitGroups, splitGroup{class: class, driveRes: drive, parts: ids})
		res.Victims = append(res.Victims, origName)
		res.Parts += len(parts)
	}
	// Deliberately NOT legalized here: the split bits sit on (and slightly
	// past) the old MBR footprint, so candidate enumeration sees them as
	// the tight clean groups they are. Scattering them first would strand
	// bits behind blocked polygons. RestorePass legalizes whatever
	// survives after recomposition.
	res.RegsAfter = len(d.Registers())
	return res, nil
}

// slackVictims picks the decompose victims: movable multi-bit registers
// with a 1-bit cell available whose worst D/Q pin slack is below the
// threshold, worst first, up to the budget. Candidates come from the STA
// engine's changed-slack feed when it covers the interval since the last
// decompose pass; a cold or overflowed feed falls back to scanning every
// register (exactly what the feed's incomplete flag prescribes).
func (s *Session) slackVictims(dcfg DecomposeConfig, tres *sta.Results) ([]*netlist.Inst, bool) {
	d := s.d
	var cands []*netlist.Inst
	changed, complete := s.engs.sta.RegsWithChangedSlack(s.slackCursor)
	fromFeed := complete && s.slackSeen
	if fromFeed {
		seen := make(map[netlist.InstID]bool, len(changed))
		for _, id := range changed {
			if seen[id] {
				continue
			}
			seen[id] = true
			if in := d.Inst(id); in != nil {
				cands = append(cands, in)
			}
		}
	} else {
		cands = d.Registers()
	}
	s.slackSeen = true

	type scored struct {
		in    *netlist.Inst
		slack float64
	}
	var pool []scored
	for _, in := range cands {
		if in.Kind != netlist.KindReg || in.Fixed || in.SizeOnly || in.Bits() < 2 {
			continue
		}
		if d.Lib.SelectCell(in.RegCell.Class, 1, in.RegCell.DriveRes) == nil {
			continue
		}
		worst := math.Min(sta.RegDSlack(d, tres, in), sta.RegQSlack(d, tres, in))
		if worst >= dcfg.SlackThresholdPS {
			continue
		}
		pool = append(pool, scored{in, worst})
	}
	// Worst slack first; instance ID breaks ties so the pass is
	// deterministic regardless of feed order.
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].slack != pool[j].slack {
			return pool[i].slack < pool[j].slack
		}
		return pool[i].in.ID < pool[j].in.ID
	})
	if dcfg.Budget > 0 && len(pool) > dcfg.Budget {
		pool = pool[:dcfg.Budget]
	}
	out := make([]*netlist.Inst, len(pool))
	for i, sc := range pool {
		out[i] = sc.in
	}
	return out, fromFeed
}

// maxWidthVictims is the All preset's selection: every movable register
// sitting at its class's maximum library width with a 1-bit cell
// available.
func maxWidthVictims(d *netlist.Design) []*netlist.Inst {
	var victims []*netlist.Inst
	for _, r := range d.Registers() {
		if r.Fixed || r.SizeOnly || r.Bits() < 2 {
			continue
		}
		class := r.RegCell.Class
		if r.Bits() != d.Lib.MaxWidth(class) {
			continue
		}
		if len(d.Lib.CellsOfWidth(class, 1)) == 0 {
			continue
		}
		victims = append(victims, r)
	}
	return victims
}

// RestorePass re-merges the decomposed bits that recomposition left as
// single-bit registers, so decomposition can never end worse than keeping
// the original MBRs: survivors of one original MBR are grouped into
// scan-compatible runs and merged into the smallest fitting width, then
// everything the decomposition stranded is legalized. It consumes the
// session's accumulated split groups; returns the number of restore
// merges.
func (s *Session) RestorePass() (int, error) {
	if s.closed {
		return 0, fmt.Errorf("flow: session closed")
	}
	groups := s.splitGroups
	s.splitGroups = nil
	// Restore-merge names carry the group index offset by how many groups
	// earlier RestorePass calls consumed, so repeated bank/debank rounds in
	// one session never collide on a surviving restored_* name.
	base := s.restoredGroups
	s.restoredGroups += len(groups)
	return restoreSplitLeftovers(s.d, s.plan, groups, s.engs.cts.ReleaseClocks, base)
}

// restoreSplitLeftovers implements RestorePass on explicit state (runFlow
// drives it directly with the groups its decompose stage produced and
// nameBase 0, preserving the legacy restored_<group>_<n> names).
func restoreSplitLeftovers(d *netlist.Design, plan *scan.Plan, groups []splitGroup, release func([]*netlist.Inst), nameBase int) (int, error) {
	restored := 0
	var created []*netlist.Inst
	for gi, g := range groups {
		var survivors []*netlist.Inst
		for _, id := range g.parts {
			if in := d.Inst(id); in != nil && in.Bits() == 1 {
				survivors = append(survivors, in)
			}
		}
		// Chunk survivors into scan-compatible runs of at most maxWidth.
		maxW := d.Lib.MaxWidth(g.class)
		for len(survivors) >= 2 {
			run := []*netlist.Inst{survivors[0]}
			rest := survivors[1:]
			for len(rest) > 0 && len(run) < maxW {
				cand := append(run, rest[0])
				if plan != nil {
					ids := make([]netlist.InstID, len(cand))
					for i, in := range cand {
						ids[i] = in.ID
					}
					if !plan.GroupCompatible(ids) {
						break
					}
				}
				run = cand
				rest = rest[1:]
			}
			survivors = rest
			if len(run) < 2 {
				continue
			}
			width, ok := d.Lib.SmallestWidthAtLeast(g.class, len(run))
			if !ok {
				continue
			}
			cell := d.Lib.SelectCell(g.class, width, g.driveRes)
			var sx, sy int64
			for _, in := range run {
				sx += in.Pos.X
				sy += in.Pos.Y
			}
			pos := geomSnap(d, sx/int64(len(run)), sy/int64(len(run)))
			ids := make([]netlist.InstID, len(run))
			for i, in := range run {
				ids[i] = in.ID
			}
			if release != nil {
				release(run)
			}
			mr, err := d.MergeRegisters(run, cell, fmt.Sprintf("restored_%d_%d", nameBase+gi, restored), pos)
			if err != nil {
				return restored, err
			}
			if plan != nil {
				if err := plan.ApplyMerge(ids, mr.MBR.ID); err != nil {
					return restored, err
				}
			}
			created = append(created, mr.MBR)
			restored++
		}
	}
	// Legalize everything the decomposition left behind: the restore
	// merges and any stranded single bits (which were never given legal
	// sites after the split).
	for _, g := range groups {
		for _, id := range g.parts {
			if in := d.Inst(id); in != nil {
				created = append(created, in)
			}
		}
	}
	place.LegalizeIncremental(d, created)
	return restored, nil
}

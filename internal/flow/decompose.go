// Slack-driven MBR decomposition: the inverse pass that closes the
// bank/debank loop. Where composition merges compatible registers into
// MBRs, decomposition selects merged registers whose slack a later stage
// degraded — a scan of every register against the retained STA engine's
// slacks, worst first — and splits them back into single-bit
// registers so the next composition pass can regroup their bits with
// better neighbours. The debank-all behavior (split every max-width MBR
// before the compose, the paper's §5 future-work idea) is the All
// preset of the same pass.
package flow

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
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
}

// splitGroup remembers one decomposed MBR so leftover bits can be
// restored after recomposition.
type splitGroup struct {
	class    lib.FuncClass
	driveRes float64
	parts    []netlist.InstID
}

// DecomposePassWith runs one slack-driven decomposition pass under dcfg
// (the composition server journals the config, so replay reproduces the
// exact pass). Victims are selected by scanning every register's D/Q
// slack under ideal clocks (the composition stage's timing view), worst
// slack first; each is split into single-bit registers that
// stay on the MBR's footprint so the next composition pass sees them as
// the tight clean group they are. Leftover bits a later composition does
// not re-merge are restored by RestorePass.
func (s *Session) DecomposePassWith(dcfg DecomposeConfig) (*DecomposeResult, error) {
	if s.closed {
		return nil, fmt.Errorf("flow: session closed")
	}
	if !dcfg.enabled() {
		return nil, fmt.Errorf("flow: decompose: config selects no victims (zero budget)")
	}
	s.engs.sta.SetIdealClocks(true)
	defer s.engs.sta.SetIdealClocks(false)
	d := s.d
	res := &DecomposeResult{RegsBefore: len(d.Registers())}

	var victims []*netlist.Inst
	if dcfg.All {
		victims = maxWidthVictims(d)
	} else {
		if _, err := s.engs.sta.RunEndpoints(); err != nil {
			return nil, err
		}
		victims = slackVictims(d, dcfg, s.engs.sta)
	}

	for _, r := range victims {
		name, class, drive := r.Name, r.RegCell.Class, r.RegCell.DriveRes
		parts, err := core.Debank(d, s.plan, r, nil)
		if err != nil {
			return nil, err
		}
		s.splitGroups = append(s.splitGroups, splitGroup{class: class, driveRes: drive, parts: netlist.IDs(parts)})
		res.Victims = append(res.Victims, name)
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
// threshold, worst first, up to the budget.
func slackVictims(d *netlist.Design, dcfg DecomposeConfig, slacks sta.SlackSource) []*netlist.Inst {
	type scored struct {
		in    *netlist.Inst
		slack float64
	}
	var pool []scored
	for _, in := range d.Registers() {
		if in.Fixed || in.SizeOnly || in.Bits() < 2 {
			continue
		}
		if d.Lib.SelectCell(in.RegCell.Class, 1, in.RegCell.DriveRes) == nil {
			continue
		}
		worst := math.Min(sta.RegDSlack(d, slacks, in), sta.RegQSlack(d, slacks, in))
		if worst >= dcfg.SlackThresholdPS {
			continue
		}
		pool = append(pool, scored{in, worst})
	}
	// Worst slack first; instance ID breaks ties so the pass is
	// deterministic.
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
	return out
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
	d, plan := s.d, s.plan
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
				if plan != nil && !plan.GroupCompatible(netlist.IDs(cand)) {
					break
				}
				run = cand
				rest = rest[1:]
			}
			survivors = rest
			if len(run) < 2 {
				continue
			}
			cell, err := fitCell(d.Lib, g.class, len(run), g.driveRes)
			if err != nil {
				continue
			}
			name := fmt.Sprintf("restored_%d_%d", base+gi, restored)
			mr, err := core.Bank(d, plan, s.engs.cts.ReleaseClocks, run, cell, name, centroid(d, run))
			if err != nil {
				return restored, err
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

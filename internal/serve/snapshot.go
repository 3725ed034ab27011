// Snapshot/restore is event-sourced: a snapshot is the session's source
// (how to load the initial design) plus the journal of every op applied
// since — edit batches, measures, composes, decomposes and restores.
// Measures are journaled like the rest because they advance retained
// engine state (a measurement folds pending edits into the clock trees),
// so session state is a
// function of the op *sequence*, not of the edits alone. Restore replays
// the journal against a fresh load and verifies the SHA-256 of the
// observable state bytes against the digest recorded at snapshot time:
// every restore re-proves byte-identity with the captured session.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// SnapshotVersion is the wire version of the Snapshot encoding.
const SnapshotVersion = 1

// Source describes how to load a session's initial design: either a
// built-in benchmark profile at a scale, or raw design (and optionally
// scan plan) JSON.
type Source struct {
	Profile string `json:"profile,omitempty"`
	Scale   int    `json:"scale,omitempty"`

	Design json.RawMessage `json:"design,omitempty"`
	Scan   json.RawMessage `json:"scan,omitempty"`
}

// Load materializes the source's design and scan plan. Profile sources
// regenerate deterministically from the profile's fixed seed; raw sources
// decode against the default register library.
func (s Source) Load() (*netlist.Design, *scan.Plan, error) {
	switch {
	case s.Profile != "":
		scale := s.Scale
		if scale <= 0 {
			scale = bench.DefaultScale
		}
		spec, ok := bench.ProfileByName(s.Profile, bench.ProfileOpts{Scale: scale})
		if !ok {
			return nil, nil, fmt.Errorf("serve: unknown profile %q", s.Profile)
		}
		res, err := bench.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: generate %s: %w", s.Profile, err)
		}
		return res.Design, res.Plan, nil

	case len(s.Design) > 0:
		d, err := netlist.ReadJSON(bytes.NewReader(s.Design), lib.MustGenerateDefault())
		if err != nil {
			return nil, nil, fmt.Errorf("serve: decode design: %w", err)
		}
		var plan *scan.Plan
		if len(s.Scan) > 0 {
			plan, err = scan.ReadJSON(bytes.NewReader(s.Scan), d)
			if err != nil {
				return nil, nil, fmt.Errorf("serve: decode scan plan: %w", err)
			}
		}
		return d, plan, nil
	}
	return nil, nil, fmt.Errorf("serve: empty source: set profile or design")
}

func (s Source) clone() Source {
	out := s
	out.Design = append(json.RawMessage(nil), s.Design...)
	out.Scan = append(json.RawMessage(nil), s.Scan...)
	if s.Design == nil {
		out.Design = nil
	}
	if s.Scan == nil {
		out.Scan = nil
	}
	return out
}

// Snapshot is a session's portable, replayable capture.
type Snapshot struct {
	Version  int           `json:"version"`
	Name     string        `json:"name"`
	Config   SessionConfig `json:"config"`
	Source   Source        `json:"source"`
	Ops      []flow.Op     `json:"ops"`
	StateSHA string        `json:"stateSHA"`
}

// replay re-applies a snapshot's journal to the freshly loaded session
// and verifies the state digest. Called with the session not yet
// published, so no locking.
func (s *Session) replay(snap *Snapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	for i, op := range snap.Ops {
		res, err := s.fs.Do(op)
		if err != nil {
			return fmt.Errorf("serve: replay op %d: %w", i, err)
		}
		s.record(op, res, nil)
	}
	if snap.StateSHA != "" {
		digest, err := stateDigest(s.fs)
		if err != nil {
			return err
		}
		if digest != snap.StateSHA {
			return fmt.Errorf("serve: replay diverged: state digest %s, snapshot recorded %s",
				digest, snap.StateSHA)
		}
	}
	return nil
}

package flow

import (
	"fmt"

	"repro/internal/core"
)

// Op kinds: every state-advancing session operation has one.
const (
	OpEdits     = "edits"
	OpMeasure   = "measure"
	OpCompose   = "compose"
	OpDecompose = "decompose"
	OpRestore   = "restore"
)

// OpKinds lists every op kind.
var OpKinds = []string{OpEdits, OpMeasure, OpCompose, OpDecompose, OpRestore}

// Op is one session operation: the unit the composition server journals
// and replays, and the load harness streams. Edits ops carry the batch;
// decompose ops carry the exact config the pass runs with, so a replay
// selects the same victims.
type Op struct {
	Kind      string           `json:"kind"`
	Edits     []Edit           `json:"edits,omitempty"`
	Decompose *DecomposeConfig `json:"decompose,omitempty"`
}

// Clone deep-copies the op (edit payloads are pointers; journals must not
// alias a caller's batch).
func (op Op) Clone() Op {
	out := Op{Kind: op.Kind}
	if op.Edits != nil {
		out.Edits = make([]Edit, len(op.Edits))
		for i, e := range op.Edits {
			out.Edits[i] = e.Clone()
		}
	}
	if op.Decompose != nil {
		dc := *op.Decompose
		out.Decompose = &dc
	}
	return out
}

// OpResult is what an op did; only its kind's field is set. Apply is set
// for every edits op, a rejected batch included, and holds the applied
// prefix.
type OpResult struct {
	Apply     *ApplyResult
	Metrics   Metrics
	Compose   *core.Result
	Decompose *DecomposeResult
	Restored  int
}

// Do runs one op: the only place an op kind maps to a session call.
func (s *Session) Do(op Op) (OpResult, error) {
	var r OpResult
	var err error
	switch op.Kind {
	case OpEdits:
		r.Apply, err = s.Apply(op.Edits)
	case OpMeasure:
		r.Metrics, err = s.Measure()
	case OpCompose:
		r.Compose, err = s.ComposePass()
	case OpDecompose:
		if op.Decompose == nil {
			return r, fmt.Errorf("flow: decompose op without config")
		}
		r.Decompose, err = s.DecomposePassWith(*op.Decompose)
	case OpRestore:
		r.Restored, err = s.RestorePass()
	default:
		err = fmt.Errorf("flow: unknown op kind %q", op.Kind)
	}
	return r, err
}

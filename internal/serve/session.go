package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/flow"
)

// SessionConfig is the JSON-serializable subset of flow.Config a tenant
// may set. flow.Config itself carries function-valued hooks and engine
// sub-configs that never cross the wire; everything else takes the flow
// defaults.
type SessionConfig struct {
	// Workers bounds the engines' worker pools (0 = one per CPU,
	// 1 = sequential). Reports are byte-identical for any setting.
	Workers int `json:"workers,omitempty"`
	// RecenterThresholdDBU sets the clock-tree engine's re-center
	// hysteresis (see cts.Options): tree buffers hold their position until
	// the plan centroid drifts past this Manhattan distance, confining an
	// edit's timing ripple to the clusters it actually touched. 0 disables it (every update re-centers, matching
	// the batch flow exactly). Tree geometry becomes edit-order dependent
	// when set, which is fine here: session determinism is per op
	// sequence, and snapshots replay the full journal.
	RecenterThresholdDBU int64 `json:"recenterThresholdDBU,omitempty"`
	// CompatMaxDeltaFrac is ignored: every compose builds the
	// compatibility graph from scratch. It stays accepted on the
	// wire and in snapshots until the benchmark's session stops setting it.
	CompatMaxDeltaFrac float64 `json:"compatMaxDeltaFrac,omitempty"`
}

// FlowConfig is the flow.Config a session created with c runs: the flow
// defaults with c's fields applied.
func (c SessionConfig) FlowConfig() flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Workers = c.Workers
	cfg.CTS.Tree.RecenterThresholdDBU = c.RecenterThresholdDBU
	return cfg
}

// SessionInfo is one session's registry row.
type SessionInfo struct {
	Name       string    `json:"name"`
	Design     string    `json:"design"`
	Epoch      uint64    `json:"epoch"`
	Ops        int       `json:"ops"`
	Batches    int64     `json:"batches"`
	Edits      int64     `json:"edits"`
	Measures   int64     `json:"measures"`
	Composes   int64     `json:"composes"`
	Decomposes int64     `json:"decomposes"`
	Created    time.Time `json:"created"`
	LastOp     time.Time `json:"lastOp"`
	Evicted    bool      `json:"evicted,omitempty"`
}

// Session is one tenant: a flow.Session behind a single-writer lock plus
// the op journal that makes it snapshotable. All exported methods are
// safe for concurrent use.
type Session struct {
	name string
	mgr  *Manager
	src  Source
	cfg  SessionConfig
	elem *list.Element // registry LRU slot, guarded by mgr.mu

	mu      sync.RWMutex
	fs      *flow.Session
	journal []flow.Op
	counts  opCounts
	evicted bool

	created time.Time
	lastOp  time.Time
}

// newSession loads the source, opens the flow session and, when restoring,
// replays the snapshot's op journal and verifies the state digest.
func newSession(m *Manager, name string, src Source, cfg SessionConfig, snap *Snapshot) (*Session, error) {
	d, plan, err := src.Load()
	if err != nil {
		return nil, err
	}
	fs, err := flow.NewSession(d, plan, cfg.FlowConfig())
	if err != nil {
		return nil, err
	}
	s := &Session{
		name: name, mgr: m, src: src.clone(), cfg: cfg,
		fs: fs, created: now(), lastOp: now(),
	}
	if snap != nil {
		if err := s.replay(snap); err != nil {
			fs.Close()
			return nil, err
		}
	}
	return s, nil
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// Do runs one op under the write lock and journals what took effect (see
// record). Measures take the write lock and are journaled too: folding
// edits into the retained clock trees advances engine state, so
// determinism is per op *sequence*.
func (s *Session) Do(op flow.Op) (flow.OpResult, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return flow.OpResult{}, nil, ErrEvicted
	}
	res, err := s.fs.Do(op)
	if done, ok := s.record(op, res, err); ok {
		s.mgr.ops.add(done)
	}
	return res, s.fs.Engines(), err
}

// record journals and counts the part of op that took effect: an edit
// batch's applied prefix (a batch is not transactional, so a snapshot
// taken after a failed batch still replays to the same state), any other
// op only when it succeeded. Do and replay both go through it, so a
// restored session reports the counters of the session its snapshot was
// taken from.
func (s *Session) record(op flow.Op, res flow.OpResult, err error) (flow.Op, bool) {
	if op.Kind == flow.OpEdits {
		op.Edits = op.Edits[:res.Apply.Applied]
		if len(op.Edits) == 0 {
			return op, false
		}
	} else if err != nil {
		return op, false
	}
	op = op.Clone()
	s.journal = append(s.journal, op)
	s.counts.add(op)
	s.lastOp = now()
	return op, true
}

// opCounts counts journaled ops by kind for SessionInfo and ManagerStats.
type opCounts struct {
	batches, edits, measures, composes, decomposes atomic.Int64
}

func (c *opCounts) add(op flow.Op) {
	switch op.Kind {
	case flow.OpEdits:
		c.batches.Add(1)
		c.edits.Add(int64(len(op.Edits)))
	case flow.OpMeasure:
		c.measures.Add(1)
	case flow.OpCompose:
		c.composes.Add(1)
	case flow.OpDecompose:
		c.decomposes.Add(1)
	}
}

// Info returns the session's registry row.
func (s *Session) Info() SessionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SessionInfo{
		Name:       s.name,
		Design:     s.fs.Design().Name,
		Epoch:      s.fs.Epoch(),
		Ops:        len(s.journal),
		Batches:    s.counts.batches.Load(),
		Edits:      s.counts.edits.Load(),
		Measures:   s.counts.measures.Load(),
		Composes:   s.counts.composes.Load(),
		Decomposes: s.counts.decomposes.Load(),
		Created:    s.created,
		LastOp:     s.lastOp,
		Evicted:    s.evicted,
	}
}

// Engines returns the retained engines' counter summaries.
func (s *Session) Engines() map[string]engine.Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evicted {
		return nil
	}
	return s.fs.Engines()
}

// Snapshot captures the session as source + op journal + a SHA-256 digest
// of the observable state bytes. Restore replays the journal against a
// fresh load and refuses to come up unless its state digest matches —
// the byte-identity proof runs on every restore, not just in tests.
func (s *Session) Snapshot() (*Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evicted {
		return nil, ErrEvicted
	}
	digest, err := stateDigest(s.fs)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Version:  SnapshotVersion,
		Name:     s.name,
		Config:   s.cfg,
		Source:   s.src.clone(),
		Ops:      cloneOps(s.journal),
		StateSHA: digest,
	}
	s.mgr.snaps.Add(1)
	return snap, nil
}

// DumpState writes the session's observable state bytes (design, scan
// plan, skew assignments) under the read lock.
func (s *Session) DumpState() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evicted {
		return nil, ErrEvicted
	}
	return dumpState(s.fs)
}

// evict marks the session evicted and closes its flow session. The
// design goes with the session, so its clock trees are not torn down.
func (s *Session) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evicted = true
	s.fs.Close()
}

func stateDigest(fs *flow.Session) (string, error) {
	h := sha256.New()
	if err := fs.DumpState(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func dumpState(fs *flow.Session) ([]byte, error) {
	var b bytes.Buffer
	if err := fs.DumpState(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func cloneOps(ops []flow.Op) []flow.Op {
	out := make([]flow.Op, len(ops))
	for i, op := range ops {
		out[i] = op.Clone()
	}
	return out
}

package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
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
	// CompatMaxDeltaFrac is ignored: the compatibility-graph engine builds
	// its graph from scratch at every compose. It stays accepted on the
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

// ComposeInfo is a compose request's outcome on the wire.
type ComposeInfo struct {
	MBRs               int      `json:"mbrs"`
	Merged             []string `json:"merged,omitempty"`
	RegsBefore         int      `json:"regsBefore"`
	RegsAfter          int      `json:"regsAfter"`
	Subgraphs          int      `json:"subgraphs"`
	Candidates         int      `json:"candidates"`
	TruncatedSubgraphs int      `json:"truncatedSubgraphs"`
	ILPNodes           int      `json:"ilpNodes"`
	ObjectiveSum       float64  `json:"objectiveSum"`
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
	journal []Op
	evicted bool

	created time.Time
	lastOp  time.Time

	batches, edits, measures, composes, decomposes int64
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
			fs.Invalidate()
			fs.Close()
			return nil, err
		}
	}
	return s, nil
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// Apply applies an edit batch under the write lock and journals the
// applied prefix — on a mid-batch failure exactly the edits that took
// effect are recorded, so a snapshot taken after a failed batch still
// replays to the same state.
func (s *Session) Apply(edits []flow.Edit) (*flow.ApplyResult, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, nil, ErrEvicted
	}
	res, err := s.fs.Apply(edits)
	applied := edits
	if res.Applied < len(edits) {
		applied = edits[:res.Applied]
	}
	if len(applied) > 0 {
		s.journal = append(s.journal, Op{Kind: OpEdits, Edits: cloneEdits(applied)})
	}
	s.batches++
	s.edits += int64(len(applied))
	s.lastOp = now()
	s.mgr.batches.Add(1)
	s.mgr.edits.Add(int64(len(applied)))
	return res, s.fs.Engines(), err
}

// Measure snapshots the Table 1 metrics of the session's current state on
// the engines' delta paths. It holds the write lock: folding edits into
// the retained clock trees advances engine state, which is also why the
// measure itself is journaled — determinism is per op *sequence*.
func (s *Session) Measure() (flow.Metrics, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return flow.Metrics{}, nil, ErrEvicted
	}
	met, err := s.fs.Measure()
	if err != nil {
		return flow.Metrics{}, s.fs.Engines(), err
	}
	s.journal = append(s.journal, Op{Kind: OpMeasure})
	s.measures++
	s.lastOp = now()
	s.mgr.measures.Add(1)
	return met, s.fs.Engines(), nil
}

// Compose runs one incremental composition pass under the write lock.
func (s *Session) Compose() (*ComposeInfo, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, nil, ErrEvicted
	}
	cres, err := s.fs.ComposePass()
	if err != nil {
		return nil, s.fs.Engines(), err
	}
	s.journal = append(s.journal, Op{Kind: OpCompose})
	s.composes++
	s.lastOp = now()
	s.mgr.composes.Add(1)
	info := &ComposeInfo{
		MBRs:               len(cres.MBRs),
		RegsBefore:         cres.RegsBefore,
		RegsAfter:          cres.RegsAfter,
		Subgraphs:          cres.Subgraphs,
		Candidates:         cres.Candidates,
		TruncatedSubgraphs: cres.TruncatedSubgraphs,
		ILPNodes:           cres.ILPNodes,
		ObjectiveSum:       cres.ObjectiveSum,
	}
	for _, m := range cres.MBRs {
		info.Merged = append(info.Merged, m.Inst.Name)
	}
	return info, s.fs.Engines(), nil
}

// DecomposeInfo is a decompose request's outcome on the wire.
type DecomposeInfo struct {
	Victims    []string `json:"victims,omitempty"`
	Decomposed int      `json:"decomposed"`
	Parts      int      `json:"parts"`
	RegsBefore int      `json:"regsBefore"`
	RegsAfter  int      `json:"regsAfter"`
}

// Decompose runs one slack-driven decomposition pass under the write
// lock. The exact config is journaled so snapshot replay selects the same
// victims.
func (s *Session) Decompose(dcfg flow.DecomposeConfig) (*DecomposeInfo, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, nil, ErrEvicted
	}
	dres, err := s.fs.DecomposePassWith(dcfg)
	if err != nil {
		return nil, s.fs.Engines(), err
	}
	cfgCopy := dcfg
	s.journal = append(s.journal, Op{Kind: OpDecompose, Decompose: &cfgCopy})
	s.decomposes++
	s.lastOp = now()
	s.mgr.decomposes.Add(1)
	return &DecomposeInfo{
		Victims:    dres.Victims,
		Decomposed: len(dres.Victims),
		Parts:      dres.Parts,
		RegsBefore: dres.RegsBefore,
		RegsAfter:  dres.RegsAfter,
	}, s.fs.Engines(), nil
}

// RestoreInfo is a restore-pass request's outcome on the wire.
type RestoreInfo struct {
	Restored int `json:"restored"`
}

// Restore re-merges leftover split bits (flow.Session.RestorePass) under
// the write lock; journaled like every other state-advancing op.
func (s *Session) Restore() (*RestoreInfo, map[string]engine.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return nil, nil, ErrEvicted
	}
	n, err := s.fs.RestorePass()
	if err != nil {
		return nil, s.fs.Engines(), err
	}
	s.journal = append(s.journal, Op{Kind: OpRestore})
	s.lastOp = now()
	return &RestoreInfo{Restored: n}, s.fs.Engines(), nil
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
		Batches:    s.batches,
		Edits:      s.edits,
		Measures:   s.measures,
		Composes:   s.composes,
		Decomposes: s.decomposes,
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

// invalidate tears down the session's retained engines after eviction.
func (s *Session) invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return
	}
	s.evicted = true
	s.fs.Invalidate()
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

func cloneEdits(edits []flow.Edit) []flow.Edit {
	out := make([]flow.Edit, len(edits))
	for i, e := range edits {
		out[i] = e.Clone()
	}
	return out
}

func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = Op{Kind: op.Kind, Edits: cloneEdits(op.Edits)}
		if op.Edits == nil {
			out[i].Edits = nil
		}
		if op.Decompose != nil {
			dc := *op.Decompose
			out[i].Decompose = &dc
		}
	}
	return out
}

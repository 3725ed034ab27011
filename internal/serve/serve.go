// Package serve turns the retained-engine composition flow into a
// long-running multi-tenant service: named sessions, each wrapping a
// flow.Session (design + scan plan + the flow's retained engines),
// held in an LRU-bounded registry. Edits stream in per session and
// measurements stream out with O(touched) incremental cost; the op
// journal makes every session snapshotable and deterministically
// restorable (snapshot.go).
//
// Concurrency model: the Manager's registry is guarded by one mutex;
// every Session is single-writer/concurrent-reader behind its own
// RWMutex. Every op (Session.Do: edits, measure, compose, decompose,
// restore) takes the write lock — a measurement advances retained engine
// state, so it is a write — and read-only calls (Info, Engines,
// Snapshot, DumpState) share the read lock. Lock order is always
// Manager → Session; eviction releases the registry lock before it marks
// the victim evicted, so a slow writer never stalls the whole registry.
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrEvicted is returned by session ops that raced an eviction.
var ErrEvicted = errors.New("serve: session evicted")

// DefaultMaxSessions bounds the registry when Options.MaxSessions is 0.
const DefaultMaxSessions = 16

// Options configures a Manager.
type Options struct {
	// MaxSessions bounds the number of live sessions; creating one beyond
	// the cap evicts the least recently used. 0 = DefaultMaxSessions.
	MaxSessions int
}

// ManagerStats is the server-level counter snapshot.
type ManagerStats struct {
	Live       int   `json:"live"`
	Created    int64 `json:"created"`
	Restored   int64 `json:"restored"`
	Evicted    int64 `json:"evicted"`
	EvictedLRU int64 `json:"evictedLRU"`
	Batches    int64 `json:"batches"`
	Edits      int64 `json:"edits"`
	Measures   int64 `json:"measures"`
	Composes   int64 `json:"composes"`
	Decomposes int64 `json:"decomposes"`
	Snapshots  int64 `json:"snapshots"`
}

// Manager is the multi-tenant session registry.
type Manager struct {
	max int

	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // of *Session; front = most recently used
	creating map[string]bool

	created, restored, evicted, evictedLRU, snaps atomic.Int64
	ops                                           opCounts
}

// NewManager returns an empty registry.
func NewManager(opts Options) *Manager {
	max := opts.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &Manager{
		max:      max,
		sessions: map[string]*Session{},
		lru:      list.New(),
		creating: map[string]bool{},
	}
}

// Create loads the source design and opens a named session over it. The
// load and engine attach run outside the registry lock (they are the
// expensive part); the name is reserved for the duration so two
// concurrent creates of the same name cannot both win.
func (m *Manager) Create(name string, src Source, cfg SessionConfig) (*Session, error) {
	build := func() (*Session, error) {
		return newSession(m, name, src, cfg, nil)
	}
	s, err := m.install(name, build)
	if err != nil {
		return nil, err
	}
	m.created.Add(1)
	return s, nil
}

// Restore rebuilds a session from a snapshot: fresh load of the source,
// replay of the journaled ops, and a state-digest check proving the
// replayed state is byte-identical to the snapshotted one. name overrides
// the snapshot's own name when non-empty.
func (m *Manager) Restore(name string, snap *Snapshot) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	if name == "" {
		name = snap.Name
	}
	build := func() (*Session, error) {
		return newSession(m, name, snap.Source, snap.Config, snap)
	}
	s, err := m.install(name, build)
	if err != nil {
		return nil, err
	}
	m.restored.Add(1)
	return s, nil
}

// install reserves the name, runs the builder outside the lock, then
// registers the session and applies the LRU cap.
func (m *Manager) install(name string, build func() (*Session, error)) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty session name")
	}
	m.mu.Lock()
	if m.sessions[name] != nil || m.creating[name] {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: session %q already exists", name)
	}
	m.creating[name] = true
	m.mu.Unlock()

	s, err := build()

	m.mu.Lock()
	delete(m.creating, name)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.sessions[name] = s
	s.elem = m.lru.PushFront(s)
	var victims []*Session
	for len(m.sessions) > m.max {
		back := m.lru.Back()
		if back == nil || back.Value.(*Session) == s {
			break
		}
		v := back.Value.(*Session)
		m.lru.Remove(back)
		delete(m.sessions, v.name)
		victims = append(victims, v)
	}
	m.mu.Unlock()

	// Evict outside the registry lock: the victim may be serving a long
	// request, and its own lock waits for it.
	for _, v := range victims {
		m.evictedLRU.Add(1)
		v.evict()
	}
	return s, nil
}

// Get returns the named session, marking it most recently used.
func (m *Manager) Get(name string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[name]
	if ok {
		m.lru.MoveToFront(s.elem)
	}
	return s, ok
}

// Evict removes the named session from the registry; ops still holding it
// fail with ErrEvicted.
func (m *Manager) Evict(name string) bool {
	m.mu.Lock()
	s, ok := m.sessions[name]
	if ok {
		delete(m.sessions, name)
		m.lru.Remove(s.elem)
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	m.evicted.Add(1)
	s.evict()
	return true
}

// Names returns the live session names, most recently used first.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, m.lru.Len())
	for e := m.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*Session).name)
	}
	return out
}

// List returns infos for every live session, most recently used first.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	ss := make([]*Session, 0, m.lru.Len())
	for e := m.lru.Front(); e != nil; e = e.Next() {
		ss = append(ss, e.Value.(*Session))
	}
	m.mu.Unlock()
	out := make([]SessionInfo, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.Info())
	}
	return out
}

// Stats snapshots the server counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	live := len(m.sessions)
	m.mu.Unlock()
	return ManagerStats{
		Live:       live,
		Created:    m.created.Load(),
		Restored:   m.restored.Load(),
		Evicted:    m.evicted.Load(),
		EvictedLRU: m.evictedLRU.Load(),
		Batches:    m.ops.batches.Load(),
		Edits:      m.ops.edits.Load(),
		Measures:   m.ops.measures.Load(),
		Composes:   m.ops.composes.Load(),
		Decomposes: m.ops.decomposes.Load(),
		Snapshots:  m.snaps.Load(),
	}
}

// now is a tiny indirection so tests can pin timestamps if ever needed.
var now = time.Now

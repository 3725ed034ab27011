package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/serve/wire"
)

// testSource is a small benchmark design that loads fast.
func testSource() Source { return Source{Profile: "D1", Scale: 200} }

// skewEdits builds n skew edits over the source design's first movable
// registers (profile generation is deterministic, so names are stable).
func skewEdits(t *testing.T, src Source, n int) []flow.Edit {
	t.Helper()
	d, _, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var edits []flow.Edit
	for _, in := range d.Registers() {
		if len(edits) == n {
			break
		}
		if in.Fixed {
			continue
		}
		edits = append(edits, flow.Skew(in.Name, float64(7+3*len(edits))))
	}
	if len(edits) < n {
		t.Fatalf("only %d movable registers", len(edits))
	}
	return edits
}

func TestManagerCreateGetEvict(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create("a", testSource(), SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", testSource(), SessionConfig{}); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if got, ok := m.Get("a"); !ok || got != s {
		t.Fatal("Get did not return the created session")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("Get of unknown name succeeded")
	}
	if !m.Evict("a") {
		t.Fatal("Evict failed")
	}
	if m.Evict("a") {
		t.Fatal("double Evict succeeded")
	}
	// Evicted sessions refuse every op with ErrEvicted.
	if _, err := apply(s); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Apply after evict = %v, want ErrEvicted", err)
	}
	if _, err := measure(s); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Measure after evict = %v, want ErrEvicted", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Snapshot after evict = %v, want ErrEvicted", err)
	}
	st := m.Stats()
	if st.Live != 0 || st.Created != 1 || st.Evicted != 1 {
		t.Fatalf("stats after evict: %+v", st)
	}
}

func TestManagerLRUEviction(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2})
	a, err := m.Create("a", testSource(), SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", testSource(), SessionConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := m.Get("a"); !ok {
		t.Fatal("Get a")
	}
	if _, err := m.Create("c", testSource(), SessionConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	if len(names) != 2 {
		t.Fatalf("live sessions = %v, want 2", names)
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("LRU victim b still live")
	}
	if _, err := measure(a); err != nil {
		t.Fatalf("survivor a unusable: %v", err)
	}
	st := m.Stats()
	if st.EvictedLRU != 1 {
		t.Fatalf("evictedLRU = %d, want 1", st.EvictedLRU)
	}
}

func TestSessionJournalAndInfo(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create("j", testSource(), SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	edits := skewEdits(t, testSource(), 3)
	if _, err := apply(s, edits...); err != nil {
		t.Fatal(err)
	}
	if _, err := measure(s); err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.Batches != 1 || info.Edits != 3 || info.Measures != 1 || info.Ops != 2 {
		t.Fatalf("info counters: %+v", info)
	}
	// A failing batch journals only its applied prefix.
	bad := append(edits[:1:1], flow.MoveTo("no_such", 1, 1))
	if _, err := apply(s, bad...); err == nil {
		t.Fatal("expected failing batch")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	last := snap.Ops[len(snap.Ops)-1]
	if last.Kind != flow.OpEdits || len(last.Edits) != 1 {
		t.Fatalf("journaled tail op %+v, want the 1-edit prefix", last)
	}

	// Ops that take no effect are neither journaled nor counted: a batch
	// rejected at its first edit and a decompose whose zero config selects
	// no victims. Every other kind counts once.
	if _, err := apply(s, flow.MoveTo("no_such", 1, 1)); err == nil {
		t.Fatal("expected rejected batch")
	}
	if _, _, err := s.Do(flow.Op{Kind: flow.OpDecompose, Decompose: &flow.DecomposeConfig{}}); err == nil {
		t.Fatal("zero decompose config accepted")
	}
	for _, op := range []flow.Op{
		{Kind: flow.OpMeasure},
		{Kind: flow.OpCompose},
		{Kind: flow.OpDecompose, Decompose: &flow.DecomposeConfig{Budget: 2, SlackThresholdPS: 1e9}},
		{Kind: flow.OpRestore},
	} {
		if _, _, err := s.Do(op); err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
	}
	info = s.Info()
	if info.Batches != 2 || info.Edits != 4 || info.Measures != 2 || info.Composes != 1 ||
		info.Decomposes != 1 || info.Ops != 7 {
		t.Fatalf("info counters: %+v", info)
	}
	if st := m.Stats(); st.Batches != info.Batches || st.Edits != info.Edits {
		t.Fatalf("manager counts %d batches %d edits, session %d and %d",
			st.Batches, st.Edits, info.Batches, info.Edits)
	}

	// A restored session reports the counters of the one it was
	// snapshotted from.
	snap, err = s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Restore("j2", snap)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Info()
	got.Name, got.Created, got.LastOp = info.Name, info.Created, info.LastOp
	if got != info {
		t.Fatalf("restored info %+v, live %+v", got, info)
	}
}

// apply runs one edit batch through Session.Do.
func apply(s *Session, edits ...flow.Edit) (*flow.ApplyResult, error) {
	res, _, err := s.Do(flow.Op{Kind: flow.OpEdits, Edits: edits})
	return res.Apply, err
}

// measure runs one measurement through Session.Do.
func measure(s *Session) (flow.Metrics, error) {
	res, _, err := s.Do(flow.Op{Kind: flow.OpMeasure})
	return res.Metrics, err
}

func TestHTTPRoundTrip(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	post := func(path string, body, out any) int {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// 422 bodies carry the applied prefix, so decode those too.
		if out != nil && (resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusUnprocessableEntity) {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	var created CreateResponse
	req := CreateRequest{Name: "h", Source: testSource(), Config: SessionConfig{Workers: 1}}
	if code := post("/v1/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if created.Name != "h" || created.Design == "" {
		t.Fatalf("create response %+v", created)
	}
	if code := post("/v1/sessions", req, nil); code != http.StatusBadRequest {
		t.Fatalf("duplicate create = %d", code)
	}

	edits := skewEdits(t, testSource(), 2)
	var eres EditsResponse
	if code := post("/v1/sessions/h/edits", EditsRequest{Edits: edits}, &eres); code != http.StatusOK {
		t.Fatalf("edits = %d", code)
	}
	if eres.Applied != 2 {
		t.Fatalf("applied %d", eres.Applied)
	}
	// Partial failure: 422 with the applied prefix and the error string.
	bad := []flow.Edit{edits[0], flow.MoveTo("no_such", 1, 1)}
	if code := post("/v1/sessions/h/edits", EditsRequest{Edits: bad}, &eres); code != http.StatusUnprocessableEntity {
		t.Fatalf("partial batch = %d", code)
	}
	if eres.Applied != 1 || eres.Error == nil || !strings.Contains(eres.Error.Message, "no_such") {
		t.Fatalf("partial response %+v", eres)
	}
	if eres.Error.Code != wire.CodeValidation || eres.Error.Op != "edits" {
		t.Fatalf("partial error envelope %+v", eres.Error)
	}

	var mres MeasureResponse
	if code := post("/v1/sessions/h/measure", struct{}{}, &mres); code != http.StatusOK {
		t.Fatalf("measure = %d", code)
	}
	if mres.Canonical == "" || mres.Metrics.TotalRegs == 0 {
		t.Fatalf("measure response %+v", mres)
	}
	if len(mres.Engines) == 0 {
		t.Fatal("measure response missing engine summaries")
	}

	var cres ComposeResponse
	if code := post("/v1/sessions/h/compose", struct{}{}, &cres); code != http.StatusOK {
		t.Fatalf("compose = %d", code)
	}

	var info InfoResponse
	if code := get("/v1/sessions/h", &info); code != http.StatusOK {
		t.Fatalf("info = %d", code)
	}
	if info.Info.Measures != 1 || info.Info.Composes != 1 {
		t.Fatalf("info %+v", info.Info)
	}
	var list ListResponse
	if code := get("/v1/sessions", &list); code != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("list = %d %+v", code, list)
	}

	var snap Snapshot
	if code := get("/v1/sessions/h/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}
	snap.Name = "h2"
	var restored CreateResponse
	if code := post("/v1/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("restore = %d", code)
	}
	if restored.Ops != len(snap.Ops) {
		t.Fatalf("restored ops %d, want %d", restored.Ops, len(snap.Ops))
	}
	// The restored session serves the same measurement bytes next.
	var m1, m2 MeasureResponse
	if code := post("/v1/sessions/h/measure", struct{}{}, &m1); code != http.StatusOK {
		t.Fatalf("measure h = %d", code)
	}
	if code := post("/v1/sessions/h2/measure", struct{}{}, &m2); code != http.StatusOK {
		t.Fatalf("measure h2 = %d", code)
	}
	if m1.Canonical != m2.Canonical {
		t.Fatalf("restored session diverged:\nlive:\n%srestored:\n%s", m1.Canonical, m2.Canonical)
	}

	if code := post("/v1/sessions/restore", snap, nil); code != http.StatusBadRequest {
		t.Fatalf("restore over live name = %d", code)
	}

	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/h2", nil)
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if code := get("/v1/sessions/h2", nil); code != http.StatusNotFound {
		t.Fatalf("info after delete = %d", code)
	}

	var stats ManagerStats
	if code := get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Created != 1 || stats.Restored != 1 || stats.Evicted != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create("t", testSource(), SessionConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apply(s, skewEdits(t, testSource(), 2)...); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Name = "t2"
	snap.StateSHA = strings.Repeat("0", len(snap.StateSHA))
	if _, err := m.Restore("", snap); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered restore = %v, want digest divergence", err)
	}
	snap2, _ := s.Snapshot()
	snap2.Name = "t3"
	snap2.Version = SnapshotVersion + 1
	if _, err := m.Restore("", snap2); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if got := len(m.Names()); got != 1 {
		t.Fatalf("failed restores leaked sessions: %d live", got)
	}
}

func TestSourceValidation(t *testing.T) {
	m := NewManager(Options{})
	if _, err := m.Create("x", Source{Profile: "D9", Scale: 10}, SessionConfig{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := m.Create("", testSource(), SessionConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if got := len(m.Names()); got != 0 {
		t.Fatalf("failed creates leaked: %d", got)
	}
}

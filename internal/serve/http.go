package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/flow"
	"repro/internal/serve/wire"
)

// API request/response shapes. Engine summaries ride on every mutating
// response so clients (and the load harness's zero-rebuild assertion) can
// watch the delta/rebuild accounting per request.

// CreateRequest opens a session.
type CreateRequest struct {
	Name   string        `json:"name"`
	Source Source        `json:"source"`
	Config SessionConfig `json:"config"`
}

// CreateResponse acknowledges a created or restored session.
type CreateResponse struct {
	Name    string               `json:"name"`
	Design  string               `json:"design"`
	Epoch   uint64               `json:"epoch"`
	Ops     int                  `json:"ops"`
	Engines wire.EngineSummaries `json:"engines"`
}

// EditsRequest streams one edit batch into a session.
type EditsRequest struct {
	Edits []flow.Edit `json:"edits"`
}

// EditsResponse reports what the batch did. A partial application (some
// edits applied, then one rejected) carries the applied prefix plus a
// structured Error — the batch is not transactional.
type EditsResponse struct {
	Applied int                  `json:"applied"`
	Merged  []string             `json:"merged,omitempty"`
	Split   []string             `json:"split,omitempty"`
	Epoch   uint64               `json:"epoch"`
	Error   *wire.Error          `json:"error,omitempty"`
	Engines wire.EngineSummaries `json:"engines"`
}

// MeasureResponse is one incremental measurement.
type MeasureResponse struct {
	Metrics   wire.Metrics         `json:"metrics"`
	Canonical string               `json:"canonical"`
	Nanos     int64                `json:"nanos"`
	Engines   wire.EngineSummaries `json:"engines"`
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

// ComposeResponse is one composition pass's outcome.
type ComposeResponse struct {
	Compose ComposeInfo          `json:"compose"`
	Nanos   int64                `json:"nanos"`
	Engines wire.EngineSummaries `json:"engines"`
}

// DecomposeRequest configures one decomposition pass. The zero config is
// rejected (it selects no victims); set Budget, or All for the legacy
// debank-everything preset.
type DecomposeRequest struct {
	Decompose flow.DecomposeConfig `json:"decompose"`
}

// DecomposeInfo is a decompose request's outcome on the wire.
type DecomposeInfo struct {
	Victims    []string `json:"victims,omitempty"`
	Decomposed int      `json:"decomposed"`
	Parts      int      `json:"parts"`
	RegsBefore int      `json:"regsBefore"`
	RegsAfter  int      `json:"regsAfter"`
}

// DecomposeResponse is one decomposition pass's outcome.
type DecomposeResponse struct {
	Decompose DecomposeInfo        `json:"decompose"`
	Nanos     int64                `json:"nanos"`
	Engines   wire.EngineSummaries `json:"engines"`
}

// RestoreInfo is a restore-pass request's outcome on the wire.
type RestoreInfo struct {
	Restored int `json:"restored"`
}

// RestoreResponse is one restore pass's outcome (leftover split bits
// re-merged into scan-compatible groups).
type RestoreResponse struct {
	Restore RestoreInfo          `json:"restore"`
	Nanos   int64                `json:"nanos"`
	Engines wire.EngineSummaries `json:"engines"`
}

// InfoResponse describes one session.
type InfoResponse struct {
	Info    SessionInfo          `json:"info"`
	Engines wire.EngineSummaries `json:"engines"`
}

// ListResponse enumerates live sessions, most recently used first.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Handler returns the server's HTTP API:
//
//	GET    /healthz                       liveness
//	GET    /v1/stats                      server counters
//	POST   /v1/sessions                   create (CreateRequest)
//	GET    /v1/sessions                   list
//	GET    /v1/sessions/{name}            info + engine summaries
//	DELETE /v1/sessions/{name}            evict (later ops on it get 410)
//	POST   /v1/sessions/{name}/edits      apply an edit batch
//	POST   /v1/sessions/{name}/measure    incremental Table 1 measurement
//	POST   /v1/sessions/{name}/compose    one composition pass
//	POST   /v1/sessions/{name}/decompose  one slack-driven decomposition pass
//	POST   /v1/sessions/{name}/restore    re-merge leftover split bits
//	GET    /v1/sessions/{name}/snapshot   event-sourced snapshot
//	POST   /v1/sessions/restore           restore from a snapshot body
//
// Every non-2xx response body is a wire.Error envelope: a stable code, the
// op that failed, and the message.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		const op = "create"
		var req CreateRequest
		if !readJSON(w, r, op, &req) {
			return
		}
		s, err := m.Create(req.Name, req.Source, req.Config)
		if err != nil {
			writeError(w, op, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, createResponse(s))
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ListResponse{Sessions: m.List()})
	})

	mux.HandleFunc("POST /v1/sessions/restore", func(w http.ResponseWriter, r *http.Request) {
		const op = "restore_session"
		var snap Snapshot
		if !readJSON(w, r, op, &snap) {
			return
		}
		s, err := m.Restore("", &snap)
		if err != nil {
			writeError(w, op, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, createResponse(s))
	})

	mux.HandleFunc("GET /v1/sessions/{name}", func(w http.ResponseWriter, r *http.Request) {
		const op = "info"
		s, ok := m.Get(r.PathValue("name"))
		if !ok {
			writeError(w, op, http.StatusNotFound, errSessionNotFound(r))
			return
		}
		writeJSON(w, http.StatusOK, InfoResponse{
			Info:    s.Info(),
			Engines: wire.Engines(s.Engines()),
		})
	})

	mux.HandleFunc("DELETE /v1/sessions/{name}", func(w http.ResponseWriter, r *http.Request) {
		const op = "evict"
		if !m.Evict(r.PathValue("name")) {
			writeError(w, op, http.StatusNotFound, errSessionNotFound(r))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	for _, kind := range flow.OpKinds {
		mux.HandleFunc("POST /v1/sessions/{name}/"+kind, func(w http.ResponseWriter, r *http.Request) {
			s, ok := m.Get(r.PathValue("name"))
			if !ok {
				writeError(w, kind, http.StatusNotFound, errSessionNotFound(r))
				return
			}
			op, ok := readOp(w, r, kind)
			if !ok {
				return
			}
			t0 := time.Now()
			res, engs, err := s.Do(op)
			// Only an edit batch answers an error with a body: it reports the
			// applied prefix, since the batch is not transactional.
			if err != nil && res.Apply == nil {
				writeError(w, kind, statusFor(err), err)
				return
			}
			status := http.StatusOK
			if err != nil {
				status = http.StatusUnprocessableEntity
			}
			writeJSON(w, status, opResponse(kind, res, time.Since(t0).Nanoseconds(), wire.Engines(engs), err))
		})
	}

	mux.HandleFunc("GET /v1/sessions/{name}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		const op = "snapshot"
		s, ok := m.Get(r.PathValue("name"))
		if !ok {
			writeError(w, op, http.StatusNotFound, errSessionNotFound(r))
			return
		}
		snap, err := s.Snapshot()
		if err != nil {
			writeError(w, op, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	return mux
}

// readOp builds the op a route runs. Only edits and decompose read a
// body; the other kinds ignore theirs.
func readOp(w http.ResponseWriter, r *http.Request, kind string) (flow.Op, bool) {
	op := flow.Op{Kind: kind}
	switch kind {
	case flow.OpEdits:
		var req EditsRequest
		if !readJSON(w, r, kind, &req) {
			return op, false
		}
		op.Edits = req.Edits
	case flow.OpDecompose:
		var req DecomposeRequest
		if !readJSON(w, r, kind, &req) {
			return op, false
		}
		op.Decompose = &req.Decompose
	}
	return op, true
}

// opResponse builds an op route's response body from what the op did;
// err is an edit batch's rejection, reported beside its applied prefix.
func opResponse(kind string, res flow.OpResult, nanos int64, engs wire.EngineSummaries, err error) any {
	switch kind {
	case flow.OpEdits:
		resp := EditsResponse{
			Applied: res.Apply.Applied,
			Merged:  res.Apply.Merged,
			Split:   res.Apply.Split,
			Epoch:   res.Apply.Epoch,
			Engines: engs,
		}
		if err != nil {
			resp.Error = wireError(kind, statusFor(err), err)
		}
		return resp
	case flow.OpMeasure:
		return MeasureResponse{
			Metrics:   wire.FromMetrics(res.Metrics),
			Canonical: res.Metrics.Canonical(),
			Nanos:     nanos,
			Engines:   engs,
		}
	case flow.OpCompose:
		c := res.Compose
		info := ComposeInfo{
			MBRs:               len(c.MBRs),
			RegsBefore:         c.RegsBefore,
			RegsAfter:          c.RegsAfter,
			Subgraphs:          c.Subgraphs,
			Candidates:         c.Candidates,
			TruncatedSubgraphs: c.TruncatedSubgraphs,
			ILPNodes:           c.ILPNodes,
			ObjectiveSum:       c.ObjectiveSum,
		}
		for _, m := range c.MBRs {
			info.Merged = append(info.Merged, m.Inst.Name)
		}
		return ComposeResponse{Compose: info, Nanos: nanos, Engines: engs}
	case flow.OpDecompose:
		d := res.Decompose
		return DecomposeResponse{
			Decompose: DecomposeInfo{
				Victims:    d.Victims,
				Decomposed: len(d.Victims),
				Parts:      d.Parts,
				RegsBefore: d.RegsBefore,
				RegsAfter:  d.RegsAfter,
			},
			Nanos:   nanos,
			Engines: engs,
		}
	default:
		return RestoreResponse{Restore: RestoreInfo{Restored: res.Restored}, Nanos: nanos, Engines: engs}
	}
}

func createResponse(s *Session) CreateResponse {
	info := s.Info()
	return CreateResponse{
		Name:    info.Name,
		Design:  info.Design,
		Epoch:   info.Epoch,
		Ops:     info.Ops,
		Engines: wire.Engines(s.Engines()),
	}
}

func errSessionNotFound(r *http.Request) error {
	return fmt.Errorf("serve: no session %q", r.PathValue("name"))
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrEvicted):
		return http.StatusGone
	default:
		return http.StatusBadRequest
	}
}

// codeFor maps an HTTP status to the stable wire error code. Every error
// path funnels through here so the code set stays closed.
func codeFor(status int) string {
	switch status {
	case http.StatusNotFound:
		return wire.CodeNotFound
	case http.StatusGone:
		return wire.CodeEvicted
	case http.StatusRequestEntityTooLarge:
		return wire.CodeBodyTooLarge
	default:
		return wire.CodeValidation
	}
}

// maxRequestBytes bounds request bodies so one oversized POST cannot
// allocate unbounded server memory. Generous because a restore body
// carries a full design snapshot plus its edit journal.
const maxRequestBytes = 64 << 20

func readJSON(w http.ResponseWriter, r *http.Request, op string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, op, status, fmt.Errorf("serve: decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func wireError(op string, status int, err error) *wire.Error {
	return &wire.Error{Code: codeFor(status), Op: op, Message: err.Error()}
}

func writeError(w http.ResponseWriter, op string, status int, err error) {
	writeJSON(w, status, wireError(op, status, err))
}

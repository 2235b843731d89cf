package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/trace"

	greedy "repro"
)

// Handler returns the service's HTTP API:
//
//	POST  /v1/graphs             ingest: JSON generation request, or a raw
//	                             graph body in any supported format
//	GET   /v1/graphs             list resident graphs
//	GET   /v1/graphs/{id}        metadata of one graph
//	GET   /v1/graphs/{id}/stats  degree/component statistics of one graph
//	PATCH /v1/graphs/{id}        apply an edge-update batch, producing a
//	                             new content-addressed graph version
//	POST   /v1/jobs              submit a job (idempotent per spec key)
//	GET    /v1/jobs/{id}         job status, with live round progress
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/result  result payload of a done job
//	GET    /v1/jobs/{id}/trace   recorded trace events of one job
//	GET    /v1/trace/recent      most recent trace events (?limit=N)
//	GET    /v1/events            live trace-event stream (SSE;
//	                             ?job=ID&kind=a,b filters)
//	GET    /v1/metrics           metrics snapshot (JSON)
//	GET    /metrics              metrics (Prometheus text exposition)
//	GET    /healthz              liveness
//
// The returned handler is wrapped in the observability middleware: by
// status-class request counters, a request-latency histogram, KindHTTP
// trace events, and a structured access log.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleGraphCreate)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphGet)
	mux.HandleFunc("GET /v1/graphs/{id}/stats", s.handleGraphStats)
	mux.HandleFunc("PATCH /v1/graphs/{id}", s.handleGraphPatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/trace/recent", s.handleTraceRecent)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return s.instrument(mux)
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// GraphResponse is the body returned by graph ingestion.
type GraphResponse struct {
	GraphInfo
	Deduped bool `json:"deduped"`
}

func (s *Service) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	// Memory watermark: when resident bytes press against the budget
	// and demotion cannot relieve it (pins, no disk tier), refuse new
	// graphs rather than let ingest crowd out running jobs.
	if s.registry.IngestPaused() {
		s.metrics.ingestPausedEvent()
		w.Header().Set("Retry-After", strconv.Itoa(s.engine.RetryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, ErrIngestPaused)
		return
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "application/json" {
		var spec GenSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad generation request: %w", err))
			return
		}
		info, deduped, err := s.Generate(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrGraphTooLarge) {
				// Same mapping as the raw-upload path below, so clients
				// can key capacity handling off one status code.
				code = http.StatusInsufficientStorage
			}
			writeError(w, code, err)
			return
		}
		code := http.StatusCreated
		if deduped {
			code = http.StatusOK
		}
		writeJSON(w, code, GraphResponse{GraphInfo: info, Deduped: deduped})
		return
	}

	// Raw upload in any of the three formats, auto-detected.
	g, err := graph.ReadAuto(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	info, deduped, err := s.registry.Add(g, strings.TrimSpace(r.URL.Query().Get("label")))
	if err != nil {
		writeError(w, http.StatusInsufficientStorage, err)
		return
	}
	code := http.StatusCreated
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, GraphResponse{GraphInfo: info, Deduped: deduped})
}

func (s *Service) handleGraphList(w http.ResponseWriter, r *http.Request) {
	list := s.registry.List()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeJSON(w, http.StatusOK, list)
}

func (s *Service) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrGraphNotFound)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// GraphStatsResponse is the body of GET /v1/graphs/{id}/stats: the
// degree and connectivity statistics operators need to size workloads
// without downloading the graph. Computed once per resident graph and
// cached.
type GraphStatsResponse struct {
	ID               string  `json:"id"`
	N                int     `json:"n"`
	M                int     `json:"m"`
	DegreeMin        int     `json:"degree_min"`
	DegreeP50        int     `json:"degree_p50"`
	DegreeMean       float64 `json:"degree_mean"`
	DegreeP90        int     `json:"degree_p90"`
	DegreeP99        int     `json:"degree_p99"`
	DegreeMax        int     `json:"degree_max"`
	IsolatedVertices int     `json:"isolated_vertices"`
	Components       int     `json:"components"`
	LargestComponent int     `json:"largest_component"`
	Degeneracy       int     `json:"degeneracy"`
}

func (s *Service) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, err := s.registry.Acquire(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer h.Release()
	st := h.Stats()
	writeJSON(w, http.StatusOK, GraphStatsResponse{
		ID:               id,
		N:                st.N,
		M:                st.M,
		DegreeMin:        st.Min,
		DegreeP50:        st.Median,
		DegreeMean:       st.Mean,
		DegreeP90:        st.P90,
		DegreeP99:        st.P99,
		DegreeMax:        st.Max,
		IsolatedVertices: st.IsolatedVertices,
		Components:       st.ConnectedComps,
		LargestComponent: st.LargestComponent,
		Degeneracy:       st.DegeneracyEstimate,
	})
}

// PatchUpdate is one edge update of a PATCH request.
type PatchUpdate struct {
	Op string `json:"op"` // "add" | "del"
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// PatchRequest is the body of PATCH /v1/graphs/{id}.
type PatchRequest struct {
	Updates []PatchUpdate `json:"updates"`
	Label   string        `json:"label,omitempty"`
}

// PatchResponse is the body returned by a graph patch: the new
// version's metadata plus its derivation.
type PatchResponse struct {
	PatchResult
	Deduped bool `json:"deduped"`
}

func (s *Service) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	var req PatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad patch request: %w", err))
		return
	}
	if len(req.Updates) > s.cfg.MaxPatchUpdates {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("service: patch carries %d updates, limit %d", len(req.Updates), s.cfg.MaxPatchUpdates))
		return
	}
	updates := make([]dynamic.Update, len(req.Updates))
	for i, up := range req.Updates {
		op, err := dynamic.ParseOp(up.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: update %d: %w", i, err))
			return
		}
		updates[i] = dynamic.Update{Op: op, U: up.U, V: up.V}
	}
	res, deduped, err := s.Patch(r.PathValue("id"), updates, req.Label)
	switch {
	case err == nil:
	case errors.Is(err, ErrGraphNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrGraphTooLarge):
		writeError(w, http.StatusInsufficientStorage, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusCreated
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, PatchResponse{PatchResult: res, Deduped: deduped})
}

// JobRequest is the body of POST /v1/jobs. The algorithm configuration
// travels as a greedy.Plan — the library's serializable form of an
// option list — so the service adds no field plumbing of its own: new
// Plan knobs flow through submission, dedup key, status, and result
// payload without touching this package. An omitted plan selects the
// default (prefix algorithm, seed 0).
type JobRequest struct {
	GraphID string      `json:"graph_id"`
	Problem string      `json:"problem"`
	Plan    greedy.Plan `json:"plan"`
	// TimeoutMS, when positive, bounds the job's execution wall time;
	// a run that overshoots terminates in state deadline_exceeded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobResponse is the body returned by job submission.
type JobResponse struct {
	JobStatus
	Deduped bool `json:"deduped"`
}

func (s *Service) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// Reject unknown fields so pre-Plan clients sending flat
	// algorithm/seed fields get a loud 400 instead of a silently
	// defaulted computation.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad job request: %w", err))
		return
	}
	// Submit validates the spec, the problem name included (400 below).
	spec := JobSpec{
		GraphID:   req.GraphID,
		Problem:   Problem(req.Problem),
		Plan:      req.Plan,
		TimeoutMS: req.TimeoutMS,
	}
	st, deduped, err := s.engine.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrGraphNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrQueueFull):
		// Overload, not outage: 429 with a Retry-After computed from the
		// observed drain rate, so well-behaved clients spread their
		// retries across the time the backlog actually needs.
		w.Header().Set("Retry-After", strconv.Itoa(s.engine.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, JobResponse{JobStatus: st, Deduped: deduped})
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobCancel cancels a queued or running job. Cancelling a job
// that already finished is a conflict (409); an already-cancelled job
// is idempotent success.
func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrJobNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	raw, st, err := s.engine.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	switch {
	case st.State == StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
	case st.State.Terminal():
		// Terminal without a result: 422 stops result pollers (202 would
		// have them spin until the janitor reaps the job).
		writeJSON(w, http.StatusUnprocessableEntity, st)
	default:
		// Not finished: return the status with 202 so clients can poll.
		writeJSON(w, http.StatusAccepted, st)
	}
}

// ErrTraceDisabled is returned by the trace endpoints when the service
// was configured with tracing off (negative TraceCapacity).
var ErrTraceDisabled = errors.New("service: tracing disabled")

// TraceResponse is the body of the trace endpoints: flight-recorder
// events, oldest first. Total counts every event ever recorded, so
// clients can detect that older events of a long job were overwritten.
type TraceResponse struct {
	JobID  string        `json:"job_id,omitempty"`
	Total  uint64        `json:"total_events"`
	Events []trace.Event `json:"events"`
}

func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if !s.trace.Enabled() {
		writeError(w, http.StatusNotFound, ErrTraceDisabled)
		return
	}
	id := r.PathValue("id")
	events := s.trace.Job(id)
	if len(events) == 0 {
		// Distinguish "job unknown" (404) from "job known but its events
		// were overwritten or not yet recorded" (200 with empty list).
		if _, err := s.engine.Status(id); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{JobID: id, Total: s.trace.Total(), Events: events})
}

func (s *Service) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if !s.trace.Enabled() {
		writeError(w, http.StatusNotFound, ErrTraceDisabled)
		return
	}
	limit := 256
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad limit %q (want a positive integer)", q))
			return
		}
		limit = n
	}
	events := s.trace.Recent(limit)
	if events == nil {
		events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{Total: s.trace.Total(), Events: events})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// maxUploadBytes bounds a dataset upload (64 MiB of CSV).
const maxUploadBytes = 64 << 20

// NewServer returns the maimond HTTP handler over a manager. Every route
// but /metrics is versioned under /v1; the unversioned paths are 404:
//
//	POST   /v1/datasets?name=N[&header=false]  upload a CSV body, register it
//	GET    /v1/datasets                        list registered datasets
//	GET    /v1/datasets/{name}                 dataset metadata
//	DELETE /v1/datasets/{name}                 unregister + drop cached results
//	POST   /v1/jobs                            submit a mining job (JSON body)
//	GET    /v1/jobs                            list jobs (status snapshots)
//	GET    /v1/jobs/{id}                       poll status + live progress
//	                                           (phase, pairs done/total,
//	                                           candidates, MVDs, schemes —
//	                                           sourced from the miner's
//	                                           event stream)
//	GET    /v1/jobs/{id}/result                fetch a done job's result
//	DELETE /v1/jobs/{id}                       cancel a queued/running job
//	GET    /v1/healthz                         liveness
//	GET    /v1/readyz                          readiness (503 once closed)
//	GET    /metrics                            Prometheus text exposition
//
// All responses are JSON except /metrics; errors use {"error": "..."}
// with a matching status code. Every request is counted in
// maimond_http_requests_total by route, method and status code.
func NewServer(m *Manager) http.Handler {
	s := &server{mgr: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.postDataset)
	mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	mux.HandleFunc("GET /v1/datasets/{name}", s.getDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.deleteDataset)
	mux.HandleFunc("POST /v1/jobs", s.postJob)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.getJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.deleteJob)
	mux.HandleFunc("POST /v1/shards", s.postShard)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/readyz", s.readyz)
	mux.HandleFunc("GET /metrics", s.metrics)
	return m.Telemetry().instrument(mux)
}

type server struct {
	mgr *Manager
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *server) postDataset(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter: name")
		return
	}
	header := true
	if h := r.URL.Query().Get("header"); h != "" {
		v, err := strconv.ParseBool(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, "header must be a boolean")
			return
		}
		header = v
	}
	info, err := s.mgr.Registry().AddCSV(name, http.MaxBytesReader(w, r.Body, maxUploadBytes), header)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.Is(err, ErrDatasetExists):
			status = http.StatusConflict
		case errors.As(err, &tooLarge):
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err.Error())
		return
	}
	s.mgr.Telemetry().datasetAdded(info)
	writeJSON(w, http.StatusCreated, info)
}

func (s *server) listDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Registry().List())
}

func (s *server) getDataset(w http.ResponseWriter, r *http.Request) {
	info, ok := s.mgr.Registry().Info(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) deleteDataset(w http.ResponseWriter, r *http.Request) {
	if !s.mgr.RemoveDataset(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

func (s *server) postJob(w http.ResponseWriter, r *http.Request) {
	var req wire.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job request: "+err.Error())
		return
	}
	job, err := s.mgr.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case strings.Contains(err.Error(), "unknown dataset"):
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// postShard serves one shard of a distributed mine (the worker half of
// internal/dist): mine the requested pair shard synchronously and return
// the per-pair outcomes. Errors map to the status MineShard reports —
// 404 unknown dataset, 409 shape mismatch, 400 bad range, 503 not ready
// or interrupted by cancellation.
func (s *server) postShard(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid shard request: "+err.Error())
		return
	}
	res, status, err := s.mgr.MineShard(r.Context(), req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]wire.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *server) getJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	res, ok := job.Result()
	if !ok {
		writeError(w, http.StatusConflict, "job is "+string(job.State())+", result only available once done")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) deleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.mgr.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": state})
}

// healthz is liveness: the process is up and serving. It always answers
// 200 — a live-but-not-ready daemon (e.g. draining at shutdown) still
// reports healthy here and not-ready on /readyz. Counters live on
// /metrics.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is readiness: 200 while the manager accepts submissions, 503
// once it is closed (load balancers should stop routing new work here).
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if !s.mgr.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// metrics serves the Prometheus text exposition of the manager's
// registry.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mgr.Telemetry().Registry().WritePrometheus(w)
}

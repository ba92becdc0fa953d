package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
)

// registerV2 mounts the v2 resource API. It serves the same pool and
// operations as v1 with a contract built for programs instead of curl
// sessions:
//
//   - Errors travel in a structured envelope {"error": {"code", "message"}}
//     with stable machine-readable codes (apierror.go).
//   - Job submission options are JSON bodies decoded into the same
//     OptionsJSON form v1's query parser fills, so both surfaces
//     canonicalize identically.
//   - Jobs are a unified resource covering cube and scene fusions, with
//     listing, canonical-options echo, and server-side long-poll.
//
// Endpoints:
//
//	POST   /v2/jobs                 multipart: optional "options" part
//	                                (JSON) then "cube" part (HSIC bytes)
//	                                → 202 job resource
//	GET    /v2/jobs                 list jobs (?state=queued|running|
//	                                done|failed|canceled, ?limit=N),
//	                                newest first
//	GET    /v2/jobs/{id}            job resource; ?wait=30s long-polls
//	                                until the job is terminal, the wait
//	                                elapses, or the server cap
//	                                (Config.MaxLongPoll) trims it
//	DELETE /v2/jobs/{id}            cancel a queued job → 200 canceled
//	                                resource; running or finished jobs
//	                                → 409 job_not_cancelable
//	GET    /v2/jobs/{id}/result     content-negotiated artifact: the
//	                                composite as image/png when Accept
//	                                includes it, else the JSON summary
//	GET    /v2/jobs/{id}/trace      recorded stage-span timeline (JSON)
//	GET    /v2/stats                pool counters (same shape as v1)
//	POST   /v2/scenes               multipart "header" + "data" upload
//	GET    /v2/scenes               scene listing
//	GET    /v2/scenes/{id}          scene info
//	DELETE /v2/scenes/{id}          unregister + delete the spool
//	POST   /v2/scenes/{id}/fuse     JSON options body → 202 job resource
func (p *Pool) registerV2(mux *http.ServeMux) {
	v2 := func(o op) http.HandlerFunc { return serve(writeAPIError, o) }
	mux.HandleFunc("POST /v2/jobs", v2(p.submitJob(v2JobRequest)))
	mux.HandleFunc("GET /v2/jobs", v2(p.listJobs))
	mux.HandleFunc("GET /v2/jobs/{id}", v2(p.getJob("wait")))
	mux.HandleFunc("DELETE /v2/jobs/{id}", v2(p.cancelJob))
	mux.HandleFunc("GET /v2/jobs/{id}/result", v2(p.jobResult))
	mux.HandleFunc("GET /v2/jobs/{id}/trace", v2(p.jobTrace))
	mux.HandleFunc("GET /v2/stats", v2(p.stats))
	mux.HandleFunc("POST /v2/scenes", v2(p.registerScene))
	mux.HandleFunc("GET /v2/scenes", v2(p.listScenes))
	mux.HandleFunc("GET /v2/scenes/{id}", v2(p.getScene))
	mux.HandleFunc("DELETE /v2/scenes/{id}", v2(p.removeScene))
	mux.HandleFunc("POST /v2/scenes/{id}/fuse", v2(p.fuseScene(v2FuseOptions)))
}

// v2JobRequest reads a v2 submission: an optional "options" part holding
// the OptionsJSON body, then a "cube" part streaming the HSIC-encoded
// cube. Options travel in the body on v2, so a v1-style ?threshold=...
// is rejected rather than dropped silently.
func v2JobRequest(r *http.Request, hash bool) (*hsi.Cube, string, core.Options, error) {
	var opts core.Options
	if err := noQuery(r); err != nil {
		return nil, "", opts, err
	}
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, "", opts, reject(errBadPayload, "multipart body required: %v", err)
	}
	part, err := mr.NextPart()
	if err != nil {
		return nil, "", opts, reject(errBadPayload, `multipart needs an optional "options" part then a "cube" part`)
	}
	if part.FormName() == "options" {
		if opts, err = decodeOptionsBody(part); err != nil {
			return nil, "", opts, err
		}
		if part, err = mr.NextPart(); err != nil {
			return nil, "", opts, reject(errBadPayload, `"cube" part missing after "options"`)
		}
	}
	if part.FormName() != "cube" {
		return nil, "", opts, reject(errBadPayload, `unexpected multipart part %q (want "cube")`, part.FormName())
	}
	cube, digest, err := readUploadCube(part, hash)
	if err != nil {
		return nil, "", opts, err
	}
	// Multipart form fields are unordered in general; a part trailing
	// the cube (an out-of-place "options", say) would otherwise be
	// dropped silently — the exact failure mode unknown query keys and
	// unknown JSON fields are rejected to prevent.
	if extra, err := mr.NextPart(); err == nil {
		return nil, "", opts, reject(errBadPayload, `unexpected multipart part %q after "cube" (options must precede the cube)`, extra.FormName())
	} else if !errors.Is(err, io.EOF) {
		return nil, "", opts, reject(errBadPayload, "reading multipart body: %v", err)
	}
	return cube, digest, opts, nil
}

// v2FuseOptions reads a scene fusion's JSON options body (an empty body
// selects the pool defaults).
func v2FuseOptions(r *http.Request) (core.Options, error) {
	if err := noQuery(r); err != nil {
		return core.Options{}, err
	}
	return decodeOptionsBody(r.Body)
}

// listJobs serves the job listing, newest submission first.
func (p *Pool) listJobs(r *http.Request) (int, any, error) {
	q := r.URL.Query()
	var state JobState
	limit := 100
	keys, err := queryKeys(q, "state", "limit")
	if err != nil {
		return 0, nil, err
	}
	for _, key := range keys {
		switch key {
		case "state":
			switch s := JobState(q.Get(key)); s {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
				state = s
			default:
				return 0, nil, reject(core.ErrBadOptions,
					"unknown state %q (valid: queued, running, done, failed, canceled)", q.Get(key))
			}
		case "limit":
			v, err := strconv.Atoi(q.Get(key))
			if err != nil || v < 1 {
				return 0, nil, reject(core.ErrBadOptions, "bad limit %q", q.Get(key))
			}
			limit = v
		}
	}
	statuses := p.Jobs(state, limit)
	jobs := make([]*jobJSON, len(statuses))
	for i, st := range statuses {
		jobs[i] = statusJSON(st)
	}
	return http.StatusOK, map[string]any{"jobs": jobs}, nil
}

// waitJob long-polls a job: the answer carries a terminal state unless
// the wait (trimmed to Config.MaxLongPoll) elapsed first, so clients
// need no status-poll loops. A present-but-empty value ("?wait=", a lost
// shell variable) is a bad value, not an absent knob.
func (p *Pool) waitJob(r *http.Request, id, wait string) (JobStatus, error) {
	d, err := time.ParseDuration(wait)
	if err != nil || d <= 0 {
		return JobStatus{}, reject(core.ErrBadOptions, "bad wait %q (want a positive duration like 30s)", wait)
	}
	d = min(d, p.cfg.MaxLongPoll)
	// Count a park only when the wait will actually block on a
	// non-terminal job (the common fast path — polling a finished job —
	// is not a park).
	if st, err := p.Status(id); err == nil && st.State != StateDone && st.State != StateFailed {
		p.metrics.longpollParks.Inc()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	st, err := p.WaitContext(ctx, id)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// The wait elapsed, or the request context was torn down (server
		// draining — see fusiond's BaseContext — or the client went
		// away, where the write just fails silently): the current
		// snapshot is the answer and a live client decides whether to
		// long-poll again.
		return st, nil
	}
	return st, err
}

// cancelJob withdraws a queued job, returning the canceled resource.
func (p *Pool) cancelJob(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	st, err := p.Cancel(r.PathValue("id"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, statusJSON(st), nil
}

// jobResult serves a finished job's artifact with content negotiation:
// image/png when the Accept header asks for it, the JSON result summary
// otherwise.
func (p *Pool) jobResult(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	id := r.PathValue("id")
	st, err := p.Status(id)
	switch {
	case err != nil:
		return 0, nil, err
	case st.State == StateFailed:
		return 0, nil, reject(errJobFailed, "job %s failed: %v", id, st.Err)
	case st.State != StateDone:
		return 0, nil, reject(errJobNotFinished, "job %s is %s", id, st.State)
	}
	if acceptsPNG(r.Header.Get("Accept")) {
		data, err := p.ImagePNG(id)
		return http.StatusOK, pngBytes(data), err
	}
	return http.StatusOK, statusJSON(st).Result, nil
}

// jobTrace serves the job's recorded stage-span timeline.
func (p *Pool) jobTrace(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	tr, err := p.Trace(r.PathValue("id"))
	return http.StatusOK, tr, err
}

// acceptsPNG reports whether an Accept header asks for the composite
// image rather than the JSON summary. This is a deliberate two-outcome
// rule, not full RFC 9110 ranking: naming image/png (or image/*) with
// any nonzero quality opts in, a q=0 refusal opts out, and a bare */*
// (or no header) keeps the JSON default — programs must opt in to
// image bytes.
func acceptsPNG(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		params := strings.Split(part, ";")
		// Media types and parameter names are case-insensitive (RFC
		// 9110 §8.3.1).
		mt := strings.TrimSpace(params[0])
		if !strings.EqualFold(mt, "image/png") && !strings.EqualFold(mt, "image/*") {
			continue
		}
		refused := false
		for _, param := range params[1:] {
			if k, v, ok := strings.Cut(strings.TrimSpace(param), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					refused = true
				}
			}
		}
		if !refused {
			return true
		}
	}
	return false
}

package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/telemetry"
)

// maxCubeBytes bounds an uploaded cube (512 MiB of HSIC). A variable so
// tests can exercise the limit without half-gigabyte uploads.
var maxCubeBytes int64 = 512 << 20

// jobJSON is the wire form of a JobStatus — the job resource shared by
// both API versions (v2 serves the same shape; only error transport
// differs).
type jobJSON struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	SceneID  string   `json:"scene_id,omitempty"`
	CacheHit bool     `json:"cache_hit"`
	Error    string   `json:"error,omitempty"`
	// Options echoes the canonical options the job ran with, defaults
	// filled in, so clients see the knobs their submission resolved to.
	Options  *JobOptions   `json:"options,omitempty"`
	Progress *TileProgress `json:"progress,omitempty"`
	// Trace summarizes recorded stage spans (count, summed seconds); the
	// full timeline is GET /v2/jobs/{id}/trace.
	Trace     map[string]telemetry.StageSummary `json:"trace,omitempty"`
	Submitted time.Time                         `json:"submitted"`
	Started   *time.Time                        `json:"started,omitempty"`
	Finished  *time.Time                        `json:"finished,omitempty"`
	Result    *resultJSON                       `json:"result,omitempty"`
}

// resultJSON summarizes a core.Result for clients. The composite image
// travels as base64 PNG only when requested (?image=1): it dominates the
// response size.
type resultJSON struct {
	UniqueSetSize int             `json:"unique_set_size"`
	SubCubes      int             `json:"sub_cubes"`
	Reissues      int             `json:"reissues"`
	CacheMisses   int             `json:"cache_misses"`
	Eigenvalues   []float64       `json:"eigenvalues"`
	PhaseTimes    core.PhaseTimes `json:"phase_times"`
	ImagePNG      string          `json:"image_png,omitempty"`
}

func statusJSON(st JobStatus) *jobJSON {
	out := &jobJSON{
		ID:        st.ID,
		State:     st.State,
		SceneID:   st.SceneID,
		CacheHit:  st.CacheHit,
		Progress:  st.Progress,
		Trace:     st.Trace,
		Submitted: st.Submitted,
	}
	if st.Err != nil {
		out.Error = st.Err.Error()
	}
	if st.Options.Workers > 0 {
		out.Options = jobOptions(st.Options)
	}
	if !st.Started.IsZero() {
		t := st.Started
		out.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		out.Finished = &t
	}
	if st.Result != nil {
		out.Result = &resultJSON{
			UniqueSetSize: st.Result.UniqueSetSize,
			SubCubes:      st.Result.SubCubes,
			Reissues:      st.Result.Reissues,
			CacheMisses:   st.Result.CacheMisses,
			Eigenvalues:   st.Result.Eigenvalues,
			PhaseTimes:    st.Result.Times,
		}
	}
	return out
}

// queryKeys validates a query against the allowed keys — unknown and
// duplicated keys are rejected rather than ignored (a typo like
// granularty=8 must fail loudly, not silently run the defaults) — and
// the keys come back sorted, so multi-error requests fail on a
// deterministic key.
func queryKeys(q map[string][]string, allowed ...string) ([]string, error) {
	keys := make([]string, 0, len(q))
	for key := range q {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if len(q[key]) > 1 {
			return nil, reject(core.ErrBadOptions, "option %q given %d times", key, len(q[key]))
		}
		if !slices.Contains(allowed, key) {
			valid := "this endpoint takes no query parameters"
			if len(allowed) > 0 {
				valid = "valid: " + strings.Join(allowed, ", ")
			}
			return nil, reject(core.ErrBadOptions, "unknown option %q (%s)", key, valid)
		}
	}
	return keys, nil
}

// noQuery rejects any query parameter on endpoints that take none.
func noQuery(r *http.Request) error {
	_, err := queryKeys(r.URL.Query())
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// op is one API operation, shared by both versions where they agree. It
// returns the success status and body — JSON, pngBytes, or nil for a
// bare status — or the error the version's renderer writes.
type op func(r *http.Request) (int, any, error)

// pngBytes is an op body served as image/png.
type pngBytes []byte

// serve adapts an op to one API version's error renderer.
func serve(fail errorRenderer, o op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		status, body, err := o(r)
		if err != nil {
			fail(w, err)
			return
		}
		switch b := body.(type) {
		case nil:
			w.WriteHeader(status)
		case pngBytes:
			w.Header().Set("Content-Type", "image/png")
			w.WriteHeader(status)
			_, _ = w.Write(b)
		default:
			writeJSON(w, status, b)
		}
	}
}

// Handler exposes the pool over HTTP. Both API versions serve the same
// operations; they differ only in where options come from (v1: query
// parameters; v2: JSON), how a cube is uploaded (v1: raw HSIC body; v2:
// multipart), and the error body (v1: {"error": "message"}; v2: the
// {"error": {"code", "message"}} envelope). The status for every error
// comes from errorCode in apierror.go.
//
//	POST   /v1/jobs                 HSIC cube body, options in the query
//	                                (algorithm, components, granularity,
//	                                parallelism, prefetch, threshold)
//	                                → 202 {id, state}
//	GET    /v1/jobs/{id}            job status/result (?image=1 adds the
//	                                composite as base64 PNG)
//	GET    /v1/stats                queue depth, cache hit rate, throughput
//	POST   /v1/scenes               register an ENVI scene: multipart
//	                                "header" part (ENVI .hdr text) then
//	                                "data" part (raw payload), spooled to
//	                                disk, never to memory → 201 scene info
//	GET    /v1/scenes               list registered scenes
//	GET    /v1/scenes/{id}          scene info
//	DELETE /v1/scenes/{id}          unregister + delete the spool
//	POST   /v1/scenes/{id}/fuse     fuse the whole scene (same option
//	                                query as /v1/jobs) → 202 job with
//	                                per-tile progress
//	GET    /v1/scenes/{id}/result   latest completed composite as image/png
//	GET    /metrics                 Prometheus text exposition
//
// The v2 resource API adds job listing, cancellation, long-poll,
// content-negotiated results and traces — see registerV2.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := func(o op) http.HandlerFunc { return serve(writeError, o) }
	mux.HandleFunc("POST /v1/jobs", v1(p.submitJob(v1JobRequest)))
	mux.HandleFunc("GET /v1/jobs/{id}", v1(p.getJob("image")))
	mux.HandleFunc("GET /v1/stats", v1(p.stats))
	mux.HandleFunc("POST /v1/scenes", v1(p.registerScene))
	mux.HandleFunc("GET /v1/scenes", v1(p.listScenes))
	mux.HandleFunc("GET /v1/scenes/{id}", v1(p.getScene))
	mux.HandleFunc("DELETE /v1/scenes/{id}", v1(p.removeScene))
	mux.HandleFunc("POST /v1/scenes/{id}/fuse", v1(p.fuseScene(optionsFromQuery)))
	mux.HandleFunc("GET /v1/scenes/{id}/result", v1(p.sceneResult))
	mux.Handle("GET /metrics", p.metrics.reg.Handler())

	p.registerV2(mux)
	// Every route (both API versions, /metrics itself) reports into the
	// route×status latency histogram.
	return p.httpMiddleware(mux)
}

// submitJob admits one cube job read by the version's decode. When the
// pool caches results, decode hashes the upload in the pass that decodes
// it, so the cache key costs no second pass over the cube.
func (p *Pool) submitJob(decode func(r *http.Request, hash bool) (*hsi.Cube, string, core.Options, error)) op {
	return func(r *http.Request) (int, any, error) {
		cube, digest, opts, err := decode(r, p.cfg.CacheEntries > 0)
		if err != nil {
			return 0, nil, err
		}
		st, err := p.submitCube(cube, digest, opts)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusAccepted, statusJSON(st), nil
	}
}

// getJob serves a job resource. knob is the one query parameter the
// version takes: v2's ?wait= long-polls (see waitJob); v1's ?image=1
// inlines the composite as base64 PNG.
func (p *Pool) getJob(knob string) op {
	return func(r *http.Request) (int, any, error) {
		id := r.PathValue("id")
		q := r.URL.Query()
		if _, err := queryKeys(q, knob); err != nil {
			return 0, nil, err
		}
		var st JobStatus
		var err error
		if q.Has("wait") {
			st, err = p.waitJob(r, id, q.Get("wait"))
		} else {
			st, err = p.Status(id)
		}
		if err != nil {
			return 0, nil, err
		}
		body := statusJSON(st)
		if q.Get("image") == "1" && body.Result != nil && st.State == StateDone {
			data, err := p.ImagePNG(st.ID)
			if err != nil {
				return 0, nil, err
			}
			body.Result.ImagePNG = base64.StdEncoding.EncodeToString(data)
		}
		return http.StatusOK, body, nil
	}
}

func (p *Pool) stats(r *http.Request) (int, any, error) {
	return http.StatusOK, p.Stats(), noQuery(r)
}

func (p *Pool) registerScene(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	info, err := p.sceneFromMultipart(r)
	return http.StatusCreated, info, err
}

func (p *Pool) listScenes(r *http.Request) (int, any, error) {
	return http.StatusOK, map[string]any{"scenes": p.Scenes()}, noQuery(r)
}

func (p *Pool) getScene(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	info, err := p.Scene(r.PathValue("id"))
	return http.StatusOK, info, err
}

func (p *Pool) removeScene(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	return http.StatusNoContent, nil, p.RemoveScene(r.PathValue("id"))
}

// fuseScene enqueues a whole-scene fusion with options read by the
// version's decode.
func (p *Pool) fuseScene(decode func(*http.Request) (core.Options, error)) op {
	return func(r *http.Request) (int, any, error) {
		opts, err := decode(r)
		if err != nil {
			return 0, nil, err
		}
		st, err := p.FuseScene(r.PathValue("id"), opts)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusAccepted, statusJSON(st), nil
	}
}

// sceneResult serves the scene's latest completed composite.
func (p *Pool) sceneResult(r *http.Request) (int, any, error) {
	if err := noQuery(r); err != nil {
		return 0, nil, err
	}
	data, err := p.SceneResultPNG(r.PathValue("id"))
	return http.StatusOK, pngBytes(data), err
}

// readUploadCube decodes an uploaded HSIC cube that makes up the rest of
// r. The decoder bounds the upload by the header's claimed dimensions
// before allocating (a 20-byte request must not demand a terabyte) and
// then reads exactly the claimed bytes, so no separate body cap is
// needed; a byte past them fails the upload. With hash set it also
// returns the cube's digest, the SHA-256 of the upload's bytes computed
// in the decoding pass.
func readUploadCube(r io.Reader, hash bool) (*hsi.Cube, string, error) {
	var cube *hsi.Cube
	var digest string
	var err error
	if hash {
		cube, digest, err = hsi.ReadCubeDigest(r, maxCubeBytes)
	} else {
		cube, err = hsi.ReadCubeLimit(r, maxCubeBytes)
	}
	switch {
	case errors.Is(err, hsi.ErrCubeTooLarge):
		return nil, "", reject(hsi.ErrCubeTooLarge, "cube exceeds the %d-byte upload limit", maxCubeBytes)
	case err != nil:
		return nil, "", reject(errBadPayload, "decoding cube: %v", err)
	}
	switch eof, err := atEOF(r); {
	case err != nil:
		return nil, "", reject(errBadPayload, "reading cube upload: %v", err)
	case !eof:
		return nil, "", reject(errBadPayload, "cube upload overruns the %d bytes its %dx%dx%d header claims",
			cube.EncodedSize(), cube.Width, cube.Height, cube.Bands)
	}
	return cube, digest, nil
}

// sceneFromMultipart parses the two-part scene upload — a "header" part
// of ENVI header text, then a "data" part streaming the raw payload —
// and registers it. The header part is read fully (it is a page of
// text); the data part flows straight to the spool.
func (p *Pool) sceneFromMultipart(r *http.Request) (SceneInfo, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return SceneInfo{}, reject(errBadPayload, "multipart body required: %v", err)
	}
	hdrPart, err := mr.NextPart()
	if err != nil || hdrPart.FormName() != "header" {
		return SceneInfo{}, reject(errBadPayload, `first multipart part must be "header" (ENVI header text)`)
	}
	// An ENVI header is a page of text; 1 MiB is generous.
	hdrText, err := io.ReadAll(io.LimitReader(hdrPart, 1<<20))
	if err != nil {
		return SceneInfo{}, reject(errBadPayload, "reading header part: %v", err)
	}
	dataPart, err := mr.NextPart()
	if err != nil || dataPart.FormName() != "data" {
		return SceneInfo{}, reject(errBadPayload, `second multipart part must be "data" (raw scene payload)`)
	}
	return p.RegisterScene(string(hdrText), dataPart)
}

// v1JobRequest reads a v1 submission: options in the query, the HSIC
// cube as the raw body.
func v1JobRequest(r *http.Request, hash bool) (*hsi.Cube, string, core.Options, error) {
	opts, err := optionsFromQuery(r)
	if err != nil {
		return nil, "", opts, err
	}
	cube, digest, err := readUploadCube(r.Body, hash)
	return cube, digest, opts, err
}

// optionsFromQuery builds per-job options from request query parameters
// by filling the same OptionsJSON form the v2 JSON bodies decode into,
// so both surfaces canonicalize through identical validation. The pool
// fixes Workers; clients tune the algorithm knobs. A present-but-empty
// value ("granularity=") is a bad value, not an absent knob: it fails
// the parse below.
func optionsFromQuery(r *http.Request) (core.Options, error) {
	var oj OptionsJSON
	q := r.URL.Query()
	intKnobs := map[string]**int{
		"granularity": &oj.Granularity,
		"prefetch":    &oj.Prefetch,
		"components":  &oj.Components,
		"parallelism": &oj.Parallelism,
	}
	keys, err := queryKeys(q, "algorithm", "components", "granularity", "parallelism", "prefetch", "threshold")
	if err != nil {
		return core.Options{}, err
	}
	for _, key := range keys {
		s := q.Get(key)
		if field, ok := intKnobs[key]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return core.Options{}, reject(core.ErrBadOptions, "bad %s %q", key, s)
			}
			*field = &v
			continue
		}
		if key == "algorithm" {
			v := s
			oj.Algorithm = &v
			continue
		}
		// threshold is the only non-int knob. NaN/Inf are re-checked in
		// OptionsJSON.Options, but rejecting them here keeps the v1
		// error string quoting the client's raw input.
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return core.Options{}, reject(core.ErrBadOptions, "bad threshold %q", s)
		}
		oj.Threshold = &v
	}
	return oj.Options()
}

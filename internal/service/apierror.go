package service

import (
	"errors"
	"fmt"
	"net/http"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// Stable machine-readable error codes of the v2 API. They are part of
// the wire contract: clients branch on them (fusionclient mirrors this
// list), so codes may be added but never renamed.
const (
	// CodeBadOption: an option failed validation (unknown key, bad
	// value, out-of-range threshold, oversized decomposition).
	CodeBadOption = "bad_option"
	// CodeBadPayload: the request body is malformed (bad multipart
	// framing, undecodable cube, scene payload/header mismatch).
	CodeBadPayload = "bad_payload"
	// CodePayloadTooLarge: the upload exceeds the pool's size limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeQueueFull: admission control rejected the job; back off and
	// resubmit.
	CodeQueueFull = "queue_full"
	// CodePoolClosed: the pool is shutting down.
	CodePoolClosed = "pool_closed"
	// CodeUnknownJob: no such (or already evicted) job ID.
	CodeUnknownJob = "unknown_job"
	// CodeUnknownScene: no such (or removed) scene ID.
	CodeUnknownScene = "unknown_scene"
	// CodeSceneLimit: the scene registry is at capacity.
	CodeSceneLimit = "scene_limit"
	// CodeNoSceneResult: the scene has no completed fusion yet.
	CodeNoSceneResult = "no_scene_result"
	// CodeImageExpired: the composite aged out of the retention window
	// (scalar results remain queryable).
	CodeImageExpired = "image_expired"
	// CodeJobNotCancelable: DELETE /v2/jobs/{id} on a job that already
	// left the queue (running or terminal).
	CodeJobNotCancelable = "job_not_cancelable"
	// CodeJobNotFinished: a result was requested for a job that has not
	// reached a terminal state.
	CodeJobNotFinished = "job_not_finished"
	// CodeJobFailed: a result was requested for a failed job.
	CodeJobFailed = "job_failed"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// apiErrorJSON is the body of the v2 structured error envelope:
//
//	{"error": {"code": "queue_full", "message": "..."}}
type apiErrorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiErrorJSON `json:"error"`
}

// Request-level failure classes that have no Pool sentinel of their
// own. Handlers raise them through reject; errorCode maps them.
var (
	// errBadPayload: the request body is malformed (multipart framing,
	// undecodable cube).
	errBadPayload = errors.New("service: malformed request body")
	// errJobNotFinished: a result was requested before the job ended.
	errJobNotFinished = errors.New("service: job not finished")
	// errJobFailed: a result was requested for a failed job.
	errJobFailed = errors.New("service: job failed")
)

// requestError is a failure a handler detected itself: errorCode
// classifies it by kind, while clients read only msg.
type requestError struct {
	kind error
	msg  string
}

func (e *requestError) Error() string { return e.msg }
func (e *requestError) Unwrap() error { return e.kind }

// reject builds a requestError of the given class.
func reject(kind error, format string, args ...any) error {
	return &requestError{kind: kind, msg: fmt.Sprintf(format, args...)}
}

// errorCode maps an error to its stable code and HTTP status. It is the
// service's whole error policy: both API versions take their status from
// here, and only the body shape differs between them. Unrecognized
// errors are server-side faults.
func errorCode(err error) (string, int) {
	switch {
	case errors.Is(err, core.ErrBadOptions):
		return CodeBadOption, http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull, http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return CodePoolClosed, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return CodeUnknownJob, http.StatusNotFound
	case errors.Is(err, ErrJobNotCancelable):
		return CodeJobNotCancelable, http.StatusConflict
	case errors.Is(err, errJobNotFinished):
		return CodeJobNotFinished, http.StatusConflict
	case errors.Is(err, errJobFailed):
		return CodeJobFailed, http.StatusConflict
	case errors.Is(err, ErrUnknownScene):
		return CodeUnknownScene, http.StatusNotFound
	case errors.Is(err, ErrSceneLimit):
		return CodeSceneLimit, http.StatusServiceUnavailable
	case errors.Is(err, ErrSceneTooLarge), errors.Is(err, hsi.ErrCubeTooLarge):
		return CodePayloadTooLarge, http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadPayload), errors.Is(err, ErrScenePayload), errors.Is(err, scene.ErrHeader):
		return CodeBadPayload, http.StatusBadRequest
	case errors.Is(err, ErrNoSceneResult):
		return CodeNoSceneResult, http.StatusNotFound
	case errors.Is(err, ErrImageExpired):
		return CodeImageExpired, http.StatusGone
	}
	return CodeInternal, http.StatusInternalServerError
}

// errorRenderer writes a failed request's response body in one API
// version's shape, with the status errorCode assigns.
type errorRenderer func(w http.ResponseWriter, err error)

// writeError renders v1's bare {"error": "message"} body.
func writeError(w http.ResponseWriter, err error) {
	_, status := errorCode(err)
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// queueFullRetryAfter is the Retry-After hint (in seconds) sent with
// queue_full rejections. Admission pressure drains at job-completion
// speed, so a short fixed backoff beats clients hot-looping resubmits;
// fusionclient surfaces the hint as APIError.RetryAfter.
const queueFullRetryAfter = "1"

// writeAPIError renders v2's structured envelope.
func writeAPIError(w http.ResponseWriter, err error) {
	code, status := errorCode(err)
	if code == CodeQueueFull {
		w.Header().Set("Retry-After", queueFullRetryAfter)
	}
	writeJSON(w, status, errorEnvelope{Error: apiErrorJSON{Code: code, Message: err.Error()}})
}

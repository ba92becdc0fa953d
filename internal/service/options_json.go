package service

import (
	"encoding/json"
	"errors"
	"io"
	"math"

	"resilientfusion/internal/core"
)

// OptionsJSON is the client-settable fusion knobs as they travel on the
// wire — the v2 JSON request form, and the form v1's query parser fills,
// so both surfaces canonicalize through the same validation. Pointer
// fields keep absent knobs off the wire; an explicitly sent zero means
// "pool default" just like v1's granularity=0 (core.Options treats zero
// as unset throughout). Workers, replication, and scheduling policy are
// fixed by the pool and not settable here.
type OptionsJSON struct {
	Granularity *int     `json:"granularity,omitempty"`
	Prefetch    *int     `json:"prefetch,omitempty"`
	Threshold   *float64 `json:"threshold,omitempty"`
	Components  *int     `json:"components,omitempty"`
	Parallelism *int     `json:"parallelism,omitempty"`
	// Algorithm selects the fusion algorithm by registry name ("pct",
	// "pyramid", "dwt"); absent or empty selects "pct". Unknown names are
	// rejected at submit with bad_option.
	Algorithm *string `json:"algorithm,omitempty"`
}

// Options validates the wire form and lowers it onto core.Options (not
// yet canonicalized — the pool's canonicalOptions applies defaults and
// policy). Range checks beyond representability live in
// canonicalOptions; this layer rejects values JSON or query strings can
// carry but no computation can mean.
func (o OptionsJSON) Options() (core.Options, error) {
	var opts core.Options
	if o.Granularity != nil {
		opts.Granularity = *o.Granularity
	}
	if o.Prefetch != nil {
		opts.Prefetch = *o.Prefetch
	}
	if o.Threshold != nil {
		v := *o.Threshold
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return opts, reject(core.ErrBadOptions, "bad threshold %v", v)
		}
		opts.Threshold = v
	}
	if o.Components != nil {
		opts.Components = *o.Components
	}
	if o.Parallelism != nil {
		opts.Parallelism = *o.Parallelism
	}
	if o.Algorithm != nil {
		opts.Algorithm = *o.Algorithm
	}
	return opts, nil
}

// maxOptionsBytes bounds an options JSON body — a page of numbers, not a
// payload channel.
const maxOptionsBytes = 1 << 20

// decodeOptionsBody reads a v2 options JSON body. An empty body selects
// the pool defaults; unknown fields are rejected the way v1 rejects
// unknown query keys (a typo must fail loudly, not silently run the
// defaults).
func decodeOptionsBody(r io.Reader) (core.Options, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxOptionsBytes))
	dec.DisallowUnknownFields()
	var oj OptionsJSON
	if err := dec.Decode(&oj); err != nil {
		if errors.Is(err, io.EOF) {
			return core.Options{}, nil
		}
		return core.Options{}, reject(core.ErrBadOptions, "bad options JSON: %v", err)
	}
	// A second document (or trailing junk) is a malformed request, not
	// ignorable padding.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return core.Options{}, reject(core.ErrBadOptions, "bad options JSON: trailing data after options object")
	}
	return oj.Options()
}

// JobOptions is the canonical options echo in job status: every knob the
// job actually ran with, defaults filled in, including the pool-fixed
// worker count. Shared by the v1 and v2 job resources.
type JobOptions struct {
	Workers     int     `json:"workers"`
	Granularity int     `json:"granularity"`
	Prefetch    int     `json:"prefetch"`
	Threshold   float64 `json:"threshold"`
	Components  int     `json:"components"`
	Parallelism int     `json:"parallelism"`
	Algorithm   string  `json:"algorithm"`
}

func jobOptions(o core.Options) *JobOptions {
	return &JobOptions{
		Workers:     o.Workers,
		Granularity: o.Granularity,
		Prefetch:    o.Prefetch,
		Threshold:   o.Threshold,
		Components:  o.Components,
		Parallelism: o.Parallelism,
		Algorithm:   o.Algorithm,
	}
}

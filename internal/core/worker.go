package core

import (
	"bytes"
	"fmt"

	"resilientfusion/internal/colormap"
	"resilientfusion/internal/fuse"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/pct"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/spectral"
)

// WorkerState holds a fusion worker's state for one job: sub-cubes
// cached from the screening phase (preserving the paper's locality — step
// 7 reuses step 1's data placement) and memoized screen responses so
// reissued requests are answered without re-screening. Every worker
// thread runs one job and owns exactly one WorkerState.
type WorkerState struct {
	algorithm   string // canonical registry name ("" behaves as "pct")
	threshold   float64
	parallelism int // kernel parallelism (0 = GOMAXPROCS)
	cost        perfmodel.Model
	cache       map[int]*hsi.SubCube
	screened    map[int][]byte // encoded ScreenResp by sub-cube
}

// NewWorkerState returns empty per-job worker state for the named
// fusion algorithm (registry name; "" behaves as "pct"). parallelism is
// the kernel parallelism of the screening, statistics, transform and
// tile-fusion steps (0 selects GOMAXPROCS); it never changes the
// computed bits, only the wall clock.
func NewWorkerState(algorithm string, threshold float64, parallelism int, cost perfmodel.Model) *WorkerState {
	return &WorkerState{
		algorithm:   fuse.Canonical(algorithm),
		threshold:   threshold,
		parallelism: parallelism,
		cost:        cost,
		cache:       make(map[int]*hsi.SubCube),
		screened:    make(map[int][]byte),
	}
}

// Handle processes one application message and returns the reply to send
// to the manager, plus the modeled flops the caller must charge (via
// Compute) before sending. replyKind 0 means no reply (unknown or stale
// kind). Handle is a deterministic function of the message stream, which
// is what keeps replicated workers in lockstep (the resilient layer's
// requirement). KindStop is the caller's business: the worker thread
// returns.
func (ws *WorkerState) Handle(kind uint16, payload []byte) (replyKind uint16, reply []byte, flops float64, err error) {
	switch kind {
	case KindScreenReq:
		req, err := DecodeScreenReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		// Reissued requests (manager timeout races) are answered from
		// the result cache instead of re-screening.
		if enc, ok := ws.screened[req.Range.Index]; ok {
			return KindScreenResp, enc, 0, nil
		}
		sub := &hsi.SubCube{Range: req.Range, Cube: req.Cube}
		ws.cache[req.Range.Index] = sub
		// Step 1: form the sub-cube's unique spectral set. The batched
		// engine parallelizes the scan under the job's kernel parallelism
		// with output bit-identical to the sequential reference, and the
		// modeled cost is charged from the sequential-equivalent count, so
		// neither the result nor the virtual time depends on the knob.
		u, st, err := spectral.ScreenBatched(sub.PixelVectors(), ws.threshold, ws.parallelism)
		if err != nil {
			return 0, nil, 0, err
		}
		enc := EncodeScreenResp(&ScreenResp{Index: req.Range.Index, Stats: st, Vectors: u.Members})
		ws.screened[req.Range.Index] = enc
		return KindScreenResp, enc, ws.cost.ScreenFlops(st, req.Cube.Bands), nil

	case KindCovReq:
		req, err := DecodeCovReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		// Step 4: covariance partial sum over this part.
		sum := linalg.NewMatrix(len(req.Mean), len(req.Mean))
		if err := pct.CovarianceSumInto(sum, req.Vectors, req.Mean, ws.parallelism); err != nil {
			return 0, nil, 0, err
		}
		return KindCovResp, EncodeCovResp(&CovResp{Part: req.Part, Sum: sum}),
			ws.cost.CovPartialFlops(len(req.Vectors), len(req.Mean)), nil

	case KindTransformReq:
		req, err := DecodeTransformReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		sub := ws.cache[req.Range.Index]
		if req.Cube != nil {
			sub = &hsi.SubCube{Range: req.Range, Cube: req.Cube}
			ws.cache[req.Range.Index] = sub
		}
		if sub == nil {
			// Regenerated replica without the cached sub-cube: ask the
			// manager to resend with data.
			return KindCacheMiss, EncodeCacheMiss(req.Range.Index), 0, nil
		}
		resp, flops, err := transformSlab(sub, req, ws.parallelism, ws.cost)
		if err != nil {
			return 0, nil, 0, err
		}
		return KindTransformResp, EncodeTransformResp(resp), flops, nil

	case KindFuseReq:
		req, err := DecodeFuseReq(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		alg, ok := fuse.Lookup(ws.algorithm)
		if !ok || alg.FuseTile == nil {
			return 0, nil, 0, fmt.Errorf("core: no tile kernel registered for algorithm %q", ws.algorithm)
		}
		// The whole per-tile fusion in one step: decompose, select, merge
		// and color-map inside the registered kernel, deterministic at
		// every parallelism. Reissued requests recompute — the kernel is
		// pure, so the reply is byte-identical and the manager dedupes.
		pixels := req.Cube.Pixels()
		rgb := make([]byte, pixels*3)
		if err := alg.FuseTile(req.Cube, ws.parallelism, rgb); err != nil {
			return 0, nil, 0, err
		}
		resp := &FuseResp{Range: req.Range, Width: req.Cube.Width, RGB: rgb}
		// Charge the transform-shaped model cost: one pass over the tile's
		// samples producing 3 output planes, plus the color mapping.
		flops := ws.cost.TransformFlops(pixels, req.Cube.Bands, 3) + ws.cost.ColorMapFlops(pixels)
		return KindFuseResp, EncodeFuseResp(resp), flops, nil
	}
	return 0, nil, 0, nil
}

// StageObserver receives the runtime seconds (wall clock on a
// RealSystem) a worker spent handling one request of the given kind
// (KindScreenReq, KindCovReq, KindTransformReq, KindFuseReq). It runs on
// the worker thread, outside the kernels, so outputs are bit-identical
// with or without it.
type StageObserver func(kind uint16, seconds float64)

// workerBody executes the worker side of the fusion protocol as a
// dedicated resilient thread — the 8-step pct exchange or the
// single-phase tile-kernel exchange, per the job's algorithm — with one
// WorkerState for its lifetime, stopping on KindStop. A request the
// worker cannot serve (a malformed payload, a failing kernel) is
// reported to the manager as KindWorkerErr, which fails the job at once
// instead of after the manager's reissue timeouts. observe, when
// non-nil, times every Handle call.
func workerBody(manager resilient.LogicalID, algorithm string, threshold float64, parallelism int, cost perfmodel.Model, observe StageObserver) resilient.RBody {
	return func(env resilient.REnv) error {
		ws := NewWorkerState(algorithm, threshold, parallelism, cost)
		for {
			m, err := env.Recv()
			if err != nil {
				return err
			}
			if m.Kind == KindStop {
				return nil
			}
			t0 := env.Now()
			replyKind, reply, flops, err := ws.Handle(m.Kind, m.Payload)
			if observe != nil {
				observe(m.Kind, env.Now()-t0)
			}
			if err != nil {
				return env.Send(manager, KindWorkerErr, []byte(err.Error()))
			}
			if replyKind == 0 {
				continue
			}
			if flops > 0 {
				if err := env.Compute(flops); err != nil {
					return err
				}
			}
			if err := env.Send(manager, replyKind, reply); err != nil {
				return err
			}
		}
	}
}

// transformSlab runs steps 7 (PCT projection) and 8 (human-centered
// color mapping) on one cached sub-cube, returning the RGB slab and the
// modeled cost. The projection runs through pct's blocked kernel
// (staged pixel blocks, tiled GEMM, fixed block grid — bit-identical for
// any parallelism) with the color mapping fused into each block's sink,
// so no intermediate component cube is materialized.
func transformSlab(sub *hsi.SubCube, req *TransformReq, parallelism int, cost perfmodel.Model) (*TransformResp, float64, error) {
	cube := sub.Cube
	comps := req.Transform.Rows
	pixels := cube.Pixels()

	rgb := make([]byte, pixels*3)
	err := pct.TransformBlocks(cube, req.Transform, req.Mean, parallelism,
		func(lo int, pc *linalg.Matrix) {
			var c [3]float64
			for r := 0; r < pc.Rows; r++ {
				row := pc.Data[r*comps : (r+1)*comps]
				for k := 0; k < 3 && k < comps; k++ {
					c[k] = req.Stretches[k].Apply(row[k])
				}
				cr, cg, cb := colormap.MapPixel(c)
				i := (lo + r) * 3
				rgb[i], rgb[i+1], rgb[i+2] = cr, cg, cb
			}
		})
	if err != nil {
		return nil, 0, err
	}
	flops := cost.TransformFlops(pixels, cube.Bands, comps) + cost.ColorMapFlops(pixels)
	return &TransformResp{Range: sub.Range, Width: cube.Width, RGB: rgb}, flops, nil
}

// subCubeBytes returns the serialized size of a sub-cube message (used
// by tests asserting the performance model's byte accounting).
func subCubeBytes(sub *hsi.SubCube) int64 {
	var b bytes.Buffer
	_, _ = sub.Cube.WriteTo(&b)
	return int64(b.Len()) + 12
}

package service

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/scplib"
	"resilientfusion/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one fusion request moving through the pool.
type Job struct {
	id     string
	num    uint64 // submission sequence number
	cube   *hsi.Cube
	opts   core.Options
	digest string
	key    string
	// cubeFile is the journal-spooled copy of a cube job's input (a bare
	// name under the pool's cubes directory), set only on durable pools;
	// the terminal journaling releases it.
	cubeFile string

	// Scene jobs stream tiles from a registered scene instead of holding
	// a cube: sceneID names the registry entry, and sceneFile is the
	// job's own open handle on the spooled payload, taken at submit so
	// removing the scene (which unlinks the file) cannot strand an
	// accepted job — the handle stays readable until finish() closes it.
	// The tile counters publish per-tile progress from the manager
	// thread to HTTP pollers; tilesTotal is immutable after enqueue.
	sceneID          string
	sceneHdr         scene.Header
	sceneFile        *os.File
	tilesTotal       int
	tilesScreened    atomic.Int64
	tilesTransformed atomic.Int64

	// trace records the job's stage spans and resiliency events, set at
	// enqueue and threaded into the run via an Options copy (never into
	// job.opts, whose ResultKey feeds the cache).
	trace *telemetry.TraceRecorder

	done chan struct{} // closed on completion (done or failed)

	// Guarded by the pool's mutex.
	state    JobState
	cacheHit bool
	err      error
	// result is the job's result with its PNG memo: the result cache's
	// entry when the job has a key and the pool caches, else the job's
	// own. A job leaving the RetainResults window gets a private,
	// image-less copy instead.
	result             *cachedResult
	submitted, started time.Time
	finished           time.Time
}

// TileProgress is a scene job's per-tile pipeline position: each tile
// passes screening and then the transform, so Transformed trails
// Screened and both end at Total.
type TileProgress struct {
	Total       int `json:"total"`
	Screened    int `json:"screened"`
	Transformed int `json:"transformed"`
}

// JobStatus is an immutable snapshot of a job.
type JobStatus struct {
	ID    string
	State JobState
	// SceneID is set for scene jobs (FuseScene).
	SceneID  string
	CacheHit bool
	Err      error
	// Result is set once State is StateDone. It is shared with the result
	// cache and other jobs: treat it as read-only.
	Result *core.Result
	// Options are the canonical options the job runs with — every knob
	// defaults-filled, including the pool-fixed worker count — so clients
	// can see what their submission actually meant.
	Options core.Options
	// Progress is set for scene jobs.
	Progress *TileProgress
	// Trace summarizes the job's recorded stage spans (count and summed
	// seconds per stage); empty until the run records spans. The full
	// timeline is served by GET /v2/jobs/{id}/trace.
	Trace     map[string]telemetry.StageSummary
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// progress snapshots the tile counters (nil for non-scene jobs).
func (j *Job) progress() *TileProgress {
	if j.sceneID == "" {
		return nil
	}
	return &TileProgress{
		Total:       j.tilesTotal,
		Screened:    int(j.tilesScreened.Load()),
		Transformed: int(j.tilesTransformed.Load()),
	}
}

// markTilesComplete reports every tile done — the cache-hit fast path
// finishes a scene job without running its tiles. tilesTotal itself was
// set under the pool lock at enqueue (the same min(G·W, lines) the
// manager derives) and is never written afterwards.
func (j *Job) markTilesComplete() {
	j.tilesScreened.Store(int64(j.tilesTotal))
	j.tilesTransformed.Store(int64(j.tilesTotal))
}

// clusterPhysBase0 starts job phys IDs far above any coordinator-local
// IDs; clusterPhysStride gives each job room for its guardian, replicas,
// regenerations, and couriers. Bases stay below clusterPhysMax: courier
// IDs mirror downward from 1<<30, so capping replica ranges at 1<<29
// keeps the two ID spaces disjoint no matter how many jobs have run, and
// the int32 ThreadID never overflows. The same layout serves the
// in-process system.
const (
	clusterPhysBase0  = scplib.ThreadID(1 << 20)
	clusterPhysStride = scplib.ThreadID(1 << 16)
	clusterPhysMax    = scplib.ThreadID(1 << 29)
)

// baseAllocator hands each running job a physical thread ID range
// disjoint from every other running job's, on whichever system the job
// runs. Finished jobs' bases are reused oldest-first (FIFO gives
// straggler threads on remote workers the longest time to drain before
// their IDs recur), so a long-lived daemon's ID space stays bounded; if
// fresh allocation ever reaches clusterPhysMax it wraps, skipping bases
// still in use.
type baseAllocator struct {
	mu        sync.Mutex
	nextBase  scplib.ThreadID
	freeBases []scplib.ThreadID            // finished jobs' bases, reused FIFO
	inUse     map[scplib.ThreadID]struct{} // bases of running jobs
}

func newBaseAllocator() *baseAllocator {
	return &baseAllocator{nextBase: clusterPhysBase0, inUse: make(map[scplib.ThreadID]struct{})}
}

func (a *baseAllocator) allocBase() scplib.ThreadID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.freeBases) > 0 {
		base := a.freeBases[0]
		a.freeBases = a.freeBases[1:]
		a.inUse[base] = struct{}{}
		return base
	}
	// The scan terminates unless every base in [base0, max) is held by a
	// running job — ~8k concurrent jobs, far beyond what the pool admits.
	for {
		if a.nextBase+clusterPhysStride > clusterPhysMax {
			a.nextBase = clusterPhysBase0
		}
		base := a.nextBase
		a.nextBase += clusterPhysStride
		if _, busy := a.inUse[base]; !busy {
			a.inUse[base] = struct{}{}
			return base
		}
	}
}

// releaseBase returns a finished job's base to the free list.
func (a *baseAllocator) releaseBase(base scplib.ThreadID) {
	a.mu.Lock()
	if _, busy := a.inUse[base]; busy {
		delete(a.inUse, base)
		a.freeBases = append(a.freeBases, base)
	}
	a.mu.Unlock()
}

// execute runs one job's fusion protocol: on the fusionworkerd fleet in
// cluster mode, else — or when the cluster cannot take the job — on the
// pool's in-process system. Scene jobs stream row tiles straight off the
// spooled file through the handle the job has held since submit, with
// one-tile read-ahead over the decomposition the manager will derive.
// The read-ahead is drained before execute returns: a transform-phase
// cache-miss resend starts one that nobody consumes, and finish() closes
// the spool handle under it.
func (p *Pool) execute(job *Job) (*core.Result, error) {
	// The recorder rides in a copy of the options: job.opts (and its
	// ResultKey, computed at enqueue) stays trace-free, so caching and
	// the canonical-options echo are untouched.
	opts := job.opts
	opts.Trace = job.trace
	var src core.CubeSource
	if job.sceneID == "" {
		src = core.MemSource(job.cube)
	} else {
		rdr, err := scene.NewReaderFrom(job.sceneHdr, job.sceneFile)
		if err != nil {
			return nil, fmt.Errorf("service: opening scene %s: %w", job.sceneID, err)
		}
		tiler := scene.NewPrefetchTiler(scene.NewTiler(rdr), opts.TileRanges(job.sceneHdr.Lines))
		tiler.OnRead = p.metrics.sceneTileRead
		defer tiler.Drain()
		src = &sceneSource{tiler: tiler, job: job}
	}
	if p.cluster != nil {
		if res, ok := p.runCluster(job, src, opts); ok {
			return res, nil
		}
	}
	res, _, err := p.runOn(p.sys, src, opts, nil)
	return res, err
}

// runOn runs one job through core.StartJob on sys under a phys-ID base
// no other running job holds, and waits for it. watch, when non-nil,
// sees the started job's runtime before the wait. The returned runtime
// is nil when the job never started.
func (p *Pool) runOn(sys scplib.System, src core.CubeSource, opts core.Options, watch func(*resilient.Runtime)) (*core.Result, *resilient.Runtime, error) {
	base := p.bases.allocBase()
	defer p.bases.releaseBase(base)
	rj, err := core.StartJob(sys, src, opts, base, p.metrics.observeStage)
	if err != nil {
		return nil, nil, err
	}
	if watch != nil {
		watch(rj.Runtime())
	}
	res, err := rj.Wait()
	return res, rj.Runtime(), err
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"resilientfusion/internal/fuse"
	"resilientfusion/internal/perfmodel"
	"resilientfusion/internal/resilient"
	"resilientfusion/internal/scplib"
)

// Jobs on a live, shared system: the same 8-step fusion protocol as
// NewJobSource, started on a scplib.System that is already running and
// serves many jobs — the service pool's in-process RealSystem, or a
// ClusterSystem whose worker replicas run in remote fusionworkerd
// processes. The manager and guardian stay on the coordinator (node 0);
// worker groups ship as RemoteBody specs whose inner kind is
// WorkerBodyKind. Because WorkerState is a deterministic function of its
// message stream and the per-replica kernels reduce over fixed shard
// grids, a cluster run's mosaic is bit-identical to an in-process run's
// for the same Options — the property the chaos test asserts under
// SIGKILL.

// WorkerBodyKind names the fusion worker loop in worker-side registries.
const WorkerBodyKind = "core.worker"

// worker args layout (little-endian):
//
//	manager     int32
//	threshold   float64 bits
//	parallelism int32
//	algorithm   uint32 (fuse.ID)
const workerArgsBytes = 20

func encodeWorkerArgs(manager resilient.LogicalID, threshold float64, parallelism int, alg fuse.ID) []byte {
	buf := make([]byte, workerArgsBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(manager))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(threshold))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(parallelism)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(alg))
	return buf
}

func decodeWorkerArgs(b []byte) (resilient.LogicalID, float64, int, string, error) {
	if len(b) < workerArgsBytes {
		return 0, 0, 0, "", fmt.Errorf("core: worker args %d bytes", len(b))
	}
	alg, ok := fuse.ByID(fuse.ID(binary.LittleEndian.Uint32(b[16:])))
	if !ok {
		return 0, 0, 0, "", fmt.Errorf("core: worker args carry unknown algorithm id %d",
			binary.LittleEndian.Uint32(b[16:]))
	}
	return resilient.LogicalID(int32(binary.LittleEndian.Uint32(b[0:]))),
		math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		int(int32(binary.LittleEndian.Uint32(b[12:]))), alg.Name, nil
}

// RegisterWorkerBodies installs the fusion worker factory into a
// resilient inner-body registry. fusionworkerd calls this once at
// startup; the cost model is only flops bookkeeping for heartbeat
// interleaving on the real runtime, so the default model is always
// correct here.
func RegisterWorkerBodies(reg *resilient.BodyRegistry) {
	reg.Register(WorkerBodyKind, func(args []byte) (resilient.RBody, error) {
		manager, threshold, parallelism, algorithm, err := decodeWorkerArgs(args)
		if err != nil {
			return nil, err
		}
		return workerBody(manager, algorithm, threshold, parallelism, perfmodel.Default(), nil), nil
	})
}

// addWorkers defines worker groups 1..opts.Workers in NewJob's node
// layout, each carrying its shippable form for a ClusterSystem's remote
// nodes. singleton defines each worker as one unmonitored local thread
// instead: the guardian then has nothing to watch and exits at once.
func addWorkers(rt *resilient.Runtime, opts Options, singleton bool, observe StageObserver) error {
	alg, _ := fuse.Lookup(opts.Algorithm) // Validate has vouched for it
	args := encodeWorkerArgs(ManagerID, opts.Threshold, opts.Parallelism, alg.ID)
	for w := 1; w <= opts.Workers; w++ {
		lid, name := resilient.LogicalID(w), fmt.Sprintf("worker%d", w)
		body := workerBody(ManagerID, opts.Algorithm, opts.Threshold, opts.Parallelism, opts.Cost, observe)
		if singleton {
			if err := rt.AddSingleton(lid, name, w, body); err != nil {
				return err
			}
			continue
		}
		placements := make([]int, opts.Replication)
		for k := range placements {
			placements[k] = 1 + (w-1+k)%opts.Workers
		}
		if err := rt.AddGroupRemote(lid, name, placements, body, WorkerBodyKind, args); err != nil {
			return err
		}
	}
	return nil
}

// RunningJob is a fusion job started on a long-lived system. Unlike Job
// (whose caller drives sys.Run for a dedicated system), a RunningJob's
// threads execute immediately on the already-running system; Wait blocks
// for the manager protocol to finish.
type RunningJob struct {
	rt   *resilient.Runtime
	res  *Result
	done chan struct{}
	err  error
}

// StartJob wires a fusion job onto a running system, placing worker
// replicas on worker nodes 1..opts.Workers and the manager plus guardian
// locally. base offsets every physical thread ID the job's runtime
// allocates, so concurrent jobs on one system cannot collide. observe,
// when non-nil, times every local worker's request handling (remote
// replicas are rebuilt without it).
//
// Workers are unmonitored singletons when Replication is 1 and
// Regenerate is off, as in NewJobSource: there is nothing to regenerate,
// and a RealSystem has no transport pings, so a monitored worker inside
// a kernel longer than FailTimeout would be declared failed. Otherwise
// every worker is a monitored group — cluster workers are regenerable
// even at replication 1.
//
// Spawn order matters on a live system: workers are added before the
// manager so that by the time the manager's first screening request is
// sent, every worker phys ID routes somewhere. (NewJobSource adds the
// manager first; that order is only safe because its system has not
// started yet.)
func StartJob(sys scplib.System, src CubeSource, opts Options, base scplib.ThreadID, observe StageObserver) (*RunningJob, error) {
	opts = opts.withDefaults()
	if err := validateSource(src); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = SharedKernelParallelism(opts.Workers)
	}

	rcfg := resilient.Config{
		Nodes:           opts.Workers + 1,
		Replication:     opts.Replication,
		HeartbeatPeriod: opts.HeartbeatPeriod,
		FailTimeout:     opts.FailTimeout,
		Regenerate:      opts.Regenerate,
		GuardianNode:    0,
		PhysBase:        base,
	}
	rt, err := resilient.New(sys, rcfg)
	if err != nil {
		return nil, err
	}
	rt.SetTrace(opts.Trace)
	if err := addWorkers(rt, opts, opts.Replication == 1 && !opts.Regenerate, observe); err != nil {
		return nil, err
	}

	job := &RunningJob{rt: rt, res: &Result{}, done: make(chan struct{})}
	mgr := func(env resilient.REnv) error {
		defer close(job.done)
		defer rt.Shutdown()
		// Errors and panics are captured for Wait, not returned: the
		// shared system stays clean of per-job application errors, and a
		// panicking manager must still fail its job rather than leave
		// Wait an incomplete result.
		defer func() {
			if r := recover(); r != nil {
				job.err = fmt.Errorf("core: job manager panic: %v", r)
			}
		}()
		job.err = RunManagerSource(env, src, opts, job.res)
		return nil
	}
	if err := rt.AddSingleton(ManagerID, "manager", 0, mgr); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		// Failed mid-wiring (typically a worker node without quorum):
		// tear down whatever was spawned so the shared system is clean.
		rt.Shutdown()
		return nil, err
	}
	return job, nil
}

// Runtime exposes the job's resiliency runtime (failure injection,
// stats, transport liveness hooks).
func (j *RunningJob) Runtime() *resilient.Runtime { return j.rt }

// Done is closed when the manager protocol has finished (or failed).
func (j *RunningJob) Done() <-chan struct{} { return j.done }

// Wait blocks for completion and returns the fusion result. It fails
// unless the manager completed the protocol.
func (j *RunningJob) Wait() (*Result, error) {
	<-j.done
	if j.err != nil {
		return nil, j.err
	}
	if !j.res.completed {
		return nil, errors.New("core: fusion did not complete")
	}
	return j.res, nil
}

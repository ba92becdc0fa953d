package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/experiments"
)

// workload is one traffic mix. step runs one closed-loop job for client
// cl and returns an error only when the benchmark itself breaks; failed
// service operations are counted and the loop goes on.
type workload struct {
	name    string
	clients int
	// durable boots the pool with JournalDir, a one-entry RAM cache and
	// a spill budget.
	durable bool
	prepare func(r *runner) error
	warmup  func(s *session) error
	step    func(s *session, cl *clientLoop) error
	// outputs lists the outputs (key/algorithm) every run of a seed
	// produces whatever its speed; outputs_sha256 covers exactly these.
	outputs []string
}

var workloads = []*workload{coldMix, hotRepeat, durableScene}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// threshold is the paper-scale screening threshold every job uses.
var threshold = experiments.PaperScale().Threshold

func jobOptions(alg string) *fusionclient.Options {
	return &fusionclient.Options{
		Threshold: fusionclient.Float(threshold),
		Algorithm: fusionclient.String(alg),
	}
}

// coldAlgorithms is cold-mix's rotation: pct sets the median, pyramid
// the tail.
var coldAlgorithms = []string{"pct", "pyramid", "pct", "dwt"}

// cold-mix: one client submits a distinct cube every job (variant n+1;
// the warm-up uses variant 0), so every job misses the cache.
var coldMix = &workload{
	name:    "cold-mix",
	clients: 1,
	warmup: func(s *session) error {
		body, err := s.r.in.hsic(0)
		if err != nil {
			return err
		}
		return s.warm(s.cubeJob(nil, "cube/0", 0, "pct", body))
	},
	step: func(s *session, cl *clientLoop) error {
		n := s.r.nextSeq()
		return s.freshCube(cl, fmt.Sprintf("cube/%d", n+1), n+1, coldAlgorithms[n%len(coldAlgorithms)])
	},
	outputs: []string{"cube/0/pct", "cube/1/pct", "cube/2/pyramid", "cube/3/pct", "cube/4/dwt"},
}

// hotKeys is hot-repeat's working set, kept small because every boot
// primes it into the cache inside setup_s.
const hotKeys = 2

// hot-repeat: two clients resubmit cubes whose results the warm-up
// cached, then fetch the PNG.
var hotRepeat = &workload{
	name:    "hot-repeat",
	clients: 2,
	prepare: func(r *runner) error {
		bodies := make([][]byte, hotKeys)
		for v := range bodies {
			var err error
			if bodies[v], err = r.in.hsic(v); err != nil {
				return err
			}
		}
		r.wstate = bodies
		return nil
	},
	warmup: func(s *session) error {
		bodies := s.r.wstate.([][]byte)
		for v, body := range bodies {
			if err := s.warm(s.cubeJob(nil, fmt.Sprintf("cube/%d", v), v, "pct", body)); err != nil {
				return err
			}
		}
		return nil
	},
	step: func(s *session, cl *clientLoop) error {
		bodies := s.r.wstate.([][]byte)
		v := s.r.nextSeq() % hotKeys
		return s.complete(cl, s.cubeJob(cl, fmt.Sprintf("cube/%d", v), v, "pct", bodies[v]))
	},
	outputs: []string{"cube/0/pct", "cube/1/pct"},
}

// durableState is durable-scene's per-session scene bookkeeping, used
// by its one client only.
type durableState struct {
	live []liveScene // registered scenes, oldest first
	next int         // next scene index
}

type liveScene struct {
	id    string
	index int
}

// Scene k is input variant 2k+1 and cube k variant 2k+2, so no scene
// shares a digest (and a cache entry) with another scene or a cube.
func sceneVariant(k int) int { return 2*k + 1 }
func cubeVariant(k int) int  { return 2*k + 2 }

// durableWarmScenes are registered and fused during warm-up, so the
// first cycle already has an older scene to re-fuse.
const durableWarmScenes = 2

// durable-scene: one client runs a fixed cycle against a durable pool —
// register scene k+2 and fuse it cold; submit cold cube k (journal,
// spool, fsync); re-fuse the oldest live scene from the spill tier;
// delete that scene.
var durableScene = &workload{
	name:    "durable-scene",
	clients: 1,
	durable: true,
	prepare: func(r *runner) (err error) {
		r.wstate, err = r.in.writeScene(r.tmp)
		return err
	},
	warmup: func(s *session) error {
		st := &durableState{}
		s.state = st
		for k := 0; k < durableWarmScenes; k++ {
			if err := s.sceneJob(nil, st, k); err != nil {
				return err
			}
		}
		st.next = durableWarmScenes
		return nil
	},
	step: func(s *session, cl *clientLoop) error {
		st := s.state.(*durableState)
		n := s.r.nextSeq()
		k := n / 3
		switch n % 3 {
		case 0:
			st.next++
			return s.sceneJob(cl, st, st.next-1)
		case 1:
			return s.freshCube(cl, fmt.Sprintf("cube/%d", k), cubeVariant(k), "pct")
		default:
			return s.refuseOldest(cl, st)
		}
	},
	outputs: []string{"scene/0/pct", "scene/1/pct", "scene/2/pct", "cube/0/pct"},
}

// warm files a warm-up job and turns its failure into a set-up error.
func (s *session) warm(j *job) error {
	s.r.record(j)
	if j.failed {
		return fmt.Errorf("warm-up job %s failed", j.key)
	}
	return nil
}

// cubeJob uploads one HSIC cube and takes it to PNG bytes in hand.
func (s *session) cubeJob(cl *clientLoop, key string, v int, alg string, body []byte) *job {
	r, ctx := s.r, context.Background()
	j := r.newJob(cl, "cube", key, v, alg)
	var st *fusionclient.Job
	err := r.call(j, "submit", "fusionclient.submit_s", func() (err error) {
		st, err = s.client.SubmitHSIC(ctx, bytes.NewReader(body), jobOptions(alg))
		return terminalErr(st, err, true)
	})
	if err == nil {
		st, err = s.await(j, st)
	}
	if err == nil {
		s.fetchPNG(j, st)
	}
	r.finish(j)
	return j
}

// freshCube encodes variant v (benchmark time) and runs it as a timed
// cube job.
func (s *session) freshCube(cl *clientLoop, key string, v int, alg string) error {
	var body []byte
	if err := cl.harnessDo(func() (err error) {
		body, err = s.r.in.hsic(v)
		return err
	}); err != nil {
		return err
	}
	return s.complete(cl, s.cubeJob(cl, key, v, alg, body))
}

// complete files a finished timed job; hashing its PNG is benchmark
// time.
func (s *session) complete(cl *clientLoop, j *job) error {
	return cl.harnessDo(func() error {
		s.r.record(j)
		return nil
	})
}

// sceneJob patches scene index into the BIL file (benchmark time, not
// job time), registers it, fuses it and fetches the PNG. The scene joins
// the live list on a successful registration.
func (s *session) sceneJob(cl *clientLoop, st *durableState, index int) (err error) {
	r, ctx := s.r, context.Background()
	sf := r.wstate.(*sceneFile)
	v := sceneVariant(index)
	var restore func() error
	if restore, err = sf.patch(r.in, v); err != nil {
		return err
	}
	defer func() {
		if rerr := restore(); err == nil {
			err = rerr
		}
	}()
	f, err := os.Open(sf.path)
	if err != nil {
		return err
	}
	defer f.Close()
	j := r.newJob(cl, "scene", fmt.Sprintf("scene/%d", index), v, "pct")
	var info *fusionclient.SceneInfo
	var job *fusionclient.Job
	jerr := r.call(j, "register", "fusionclient.register_scene_s", func() (err error) {
		info, err = s.client.RegisterScene(ctx, sf.header, f)
		return err
	})
	if jerr == nil {
		st.live = append(st.live, liveScene{id: info.ID, index: index})
		jerr = r.call(j, "fuse", "fusionclient.fuse_scene_s", func() (err error) {
			job, err = s.client.FuseScene(ctx, info.ID, jobOptions("pct"))
			return terminalErr(job, err, true)
		})
	}
	if jerr == nil {
		job, jerr = s.await(j, job)
	}
	if jerr == nil {
		s.fetchPNG(j, job)
	}
	r.finish(j)
	if cl == nil {
		return s.warm(j)
	}
	return s.complete(cl, j)
}

// refuseOldest re-fuses the oldest live scene — its result has left the
// one-entry RAM cache for the spill tier — then deletes the scene.
func (s *session) refuseOldest(cl *clientLoop, st *durableState) error {
	r, ctx := s.r, context.Background()
	if len(st.live) == 0 {
		return errors.New("durable-scene: no live scene to re-fuse")
	}
	old := st.live[0]
	st.live = st.live[1:]
	j := r.newJob(cl, "refuse", fmt.Sprintf("scene/%d", old.index), sceneVariant(old.index), "pct")
	var job *fusionclient.Job
	err := r.call(j, "fuse", "fusionclient.fuse_scene_s", func() (err error) {
		job, err = s.client.FuseScene(ctx, old.id, jobOptions("pct"))
		return terminalErr(job, err, true)
	})
	if err == nil {
		job, err = s.await(j, job)
	}
	if err == nil {
		s.fetchPNG(j, job)
	}
	r.finish(j)
	rerr := s.client.RemoveScene(ctx, old.id)
	r.ops.add("delete", rerr != nil)
	return s.complete(cl, j)
}

// await waits for a job that was not terminal on acceptance.
func (s *session) await(j *job, st *fusionclient.Job) (*fusionclient.Job, error) {
	if st.Terminal() {
		return st, nil
	}
	err := s.r.call(j, "wait", "fusionclient.wait_s", func() (err error) {
		st, err = s.client.Wait(context.Background(), st.ID)
		return terminalErr(st, err, false)
	})
	return st, err
}

func (s *session) fetchPNG(j *job, st *fusionclient.Job) {
	var png []byte
	if s.r.call(j, "result", "fusionclient.result_png_s", func() (err error) {
		png, err = s.client.ResultPNG(context.Background(), st.ID)
		return err
	}) == nil {
		j.res, j.png = st, png
	}
}

// terminalErr turns a job that ended in any state but done into an
// error; pending jobs pass when they may still be waited on.
func terminalErr(st *fusionclient.Job, err error, pendingOK bool) error {
	if err != nil {
		return err
	}
	if st.State == fusionclient.StateDone || (pendingOK && !st.Terminal()) {
		return nil
	}
	return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
}

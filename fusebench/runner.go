package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"resilientfusion/fusionclient"
)

type runConfig struct {
	workload             *workload
	seed                 int64
	seconds              float64
	traced               bool
	width, height, bands int
	workDir              string
}

// setupReps is how many times a run boots the service and warms it up;
// setup_s is the median. Every boot but the last is torn down again.
const setupReps = 3

// runner holds one benchmark run's state.
type runner struct {
	cfg    runConfig
	in     *inputs
	tmp    string
	ops    opCounts
	rec    *recorder // nil until the traced phase begins
	t0     time.Time // the run's clock origin for span times
	refs   *references
	wstate any // workload-private state shared by every session (pre-encoded inputs)

	mu     sync.Mutex
	jobs   []*job // every finished job, warm-up included, in completion order
	seq    int    // next timed job number (nextSeq)
	traces int    // trace IDs handed out
}

// job is one fusion as a client sees it: from the first input byte sent
// to the PNG bytes in hand.
type job struct {
	trace   string // benchmark-assigned ID shared by every span of the job
	kind    string // cube, scene or refuse
	key     string // input identity, e.g. cube/7 or scene/3
	variant int
	alg     string
	phase   int // 0 untraced, 1 traced

	start, end time.Time
	failed     bool
	res        *fusionclient.Job
	png        []byte
	pngHash    [32]byte
	// layers holds this job's per-layer samples by metric name.
	layers map[string]float64
	spans  []localSpan
}

func (j *job) latency() float64 { return j.end.Sub(j.start).Seconds() }

// opCounts tallies attempted and failed operations per op type.
type opCounts struct {
	mu sync.Mutex
	m  map[string]*[2]int64
}

func (o *opCounts) add(op string, failed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.m == nil {
		o.m = make(map[string]*[2]int64)
	}
	c := o.m[op]
	if c == nil {
		c = new([2]int64)
		o.m[op] = c
	}
	c[0]++
	if failed {
		c[1]++
	}
}

// fail turns one already-counted success of op into a failure (a
// composite that failed the correctness check).
func (o *opCounts) fail(op string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c := o.m[op]; c != nil && c[1] < c[0] {
		c[1]++
	}
}

func (o *opCounts) totals() (attempted, failed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range o.m {
		attempted += c[0]
		failed += c[1]
	}
	return
}

func (o *opCounts) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.m))
	for n := range o.m {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		c := o.m[n]
		s += fmt.Sprintf(" %s=%d/%d/%d", n, c[0], c[0]-c[1], c[1])
	}
	return "ops (attempted/succeeded/failed):" + s
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	wall                   float64 // seconds from the window start until the last client stopped
	harness                float64 // mean per-client seconds spent on the benchmark's own work
	jobs                   []*job
	allocMB                float64
	gcCycles               uint32
	statsFrom              *fusionclient.Stats
	statsTo                *fusionclient.Stats
	metricsFrom, metricsTo map[string]float64
}

// result is everything a run reports.
type result struct {
	cfg       runConfig
	setup     []float64
	untraced  phaseStats
	traced    *phaseStats
	peakRSSMB float64
	ops       *opCounts
	verify    verifyReport
	tracePath string
}

func run(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{cfg: cfg, tmp: tmp, t0: time.Now()}
	if r.in, err = newInputs(cfg.seed, cfg.width, cfg.height, cfg.bands); err != nil {
		return nil, err
	}
	r.refs = newReferences(r.in)
	wl := cfg.workload
	if wl.prepare != nil {
		if err := wl.prepare(r); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}

	res := &result{cfg: cfg, ops: &r.ops}
	var s *session
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if s, err = r.boot(rep); err != nil {
			return nil, err
		}
		if err := wl.warmup(s); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
		if rep < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}

	phase := cfg.seconds
	if cfg.traced {
		phase /= 2
	}
	res.untraced, err = r.measure(s, 0, phase)
	if err == nil && cfg.traced {
		r.rec = newRecorder(r.t0)
		var ph phaseStats
		ph, err = r.measure(s, 1, phase)
		res.traced = &ph
	}
	res.peakRSSMB = peakRSSMB()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.verify = r.verify()
	if cfg.traced {
		res.tracePath, err = r.rec.write(cfg.workDir, fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure runs the workload's closed loop for the given seconds with
// wl.clients client goroutines, each taking steps until the deadline.
func (r *runner) measure(s *session, phase int, seconds float64) (phaseStats, error) {
	var ph phaseStats
	ctx := context.Background()
	runtime.GC()
	var err error
	if ph.statsFrom, err = s.client.Stats(ctx); err != nil {
		return ph, err
	}
	if ph.metricsFrom, err = s.scrapeMetrics(); err != nil {
		return ph, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := len(r.jobs)
	clients := r.cfg.workload.clients
	harness := make([]float64, clients)
	errs := make([]error, clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clientLoop{phase: phase}
			for time.Now().Before(deadline) {
				if err := r.cfg.workload.step(s, cl); err != nil {
					errs[c] = err
					return
				}
			}
			harness[c] = cl.harness.Seconds()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	for c := range errs {
		if errs[c] != nil {
			return ph, errs[c]
		}
		ph.harness += harness[c] / float64(clients)
	}
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ph.gcCycles = m1.NumGC - m0.NumGC
	if ph.statsTo, err = s.client.Stats(ctx); err != nil {
		return ph, err
	}
	if ph.metricsTo, err = s.scrapeMetrics(); err != nil {
		return ph, err
	}
	r.mu.Lock()
	ph.jobs = append([]*job(nil), r.jobs[first:]...)
	r.mu.Unlock()
	if phase == 1 {
		// The probes replay the traced jobs after the window, one at a
		// time, so no replay competes with a timed job for the CPU.
		for _, j := range ph.jobs {
			if err := s.probe(j); err != nil {
				return ph, err
			}
			r.dropDuplicatePNG(j)
		}
	}
	return ph, nil
}

// clientLoop is one closed-loop client's position in its workload.
type clientLoop struct {
	phase   int
	harness time.Duration
}

// harnessDo runs benchmark-own work (input encoding, hashing)
// and books its time so throughput excludes it.
func (cl *clientLoop) harnessDo(fn func() error) error {
	t := time.Now()
	err := fn()
	cl.harness += time.Since(t)
	return err
}

// nextSeq numbers the timed jobs across clients and phases.
func (r *runner) nextSeq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq - 1
}

// newJob starts a job; the first client call follows immediately.
// A nil cl marks a warm-up job.
func (r *runner) newJob(cl *clientLoop, kind, key string, variant int, alg string) *job {
	r.mu.Lock()
	r.traces++
	id := fmt.Sprintf("%s-%d", r.cfg.workload.name, r.traces)
	r.mu.Unlock()
	j := &job{
		trace: id, kind: kind, key: key, variant: variant, alg: alg,
		layers: make(map[string]float64),
	}
	if cl != nil {
		j.phase = cl.phase
	}
	j.start = time.Now()
	return j
}

// call runs one client operation inside job j, counting it under op and
// timing it as the layer sample name.
func (r *runner) call(j *job, op, name string, fn func() error) error {
	t := time.Now()
	err := fn()
	end := time.Now()
	r.ops.add(op, err != nil)
	j.layers[name] += end.Sub(t).Seconds()
	j.addSpan(trimUnit(name), t, end)
	if err != nil {
		j.failed = true
		return fmt.Errorf("%s %s: %w", op, j.key, err)
	}
	return nil
}

// finish stamps the job's end — the PNG bytes are in hand — and books
// the service-side samples the job resource carries.
func (r *runner) finish(j *job) {
	j.end = time.Now()
	st := j.res
	if j.failed || st == nil {
		return
	}
	if st.Started != nil && st.Finished != nil {
		j.layers["service.queue_wait_s"] = st.Started.Sub(st.Submitted).Seconds()
		j.layers["service.run_s"] = st.Finished.Sub(*st.Started).Seconds()
	}
	j.layers["service.png_bytes"] = float64(len(j.png))
	if st.Result != nil && j.alg == "pct" && !st.CacheHit {
		j.layers["core.unique_set_size"] = float64(st.Result.UniqueSetSize)
	}
}

// record files a finished job for verification. A traced job keeps its
// PNG bytes until its probes have replayed them.
func (r *runner) record(j *job) {
	if !j.failed && j.png != nil {
		j.pngHash = sha256.Sum256(j.png)
		if j.phase == 0 {
			r.dropDuplicatePNG(j)
		}
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// dropDuplicatePNG keeps a job's PNG bytes only when no earlier job
// returned the same PNG for the same reference, so hot traffic does not
// pin every copy.
func (r *runner) dropDuplicatePNG(j *job) {
	if !j.failed && j.png != nil && !r.refs.keepPNG(j) {
		j.png = nil
	}
}

// scrapeMetrics reads the pool's Prometheus exposition into a flat
// name{labels} → value map.
func (s *session) scrapeMetrics() (map[string]float64, error) {
	resp, err := s.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss,
// which Linux reports in KiB and which equals VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

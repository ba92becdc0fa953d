package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
	"resilientfusion/internal/store"
)

// Span kinds, which decide a span's parent when a job's spans are
// committed.
const (
	kindClient  = iota // a fusionclient call inside the job
	kindService        // queue wait and run, from the job resource's stamps
	kindCore           // the job's own exported stage spans
	kindProbe          // a replay of the job's input through one layer
)

// localSpan is a span as recorded while a job runs.
type localSpan struct {
	name       string
	kind       int
	start, end time.Time
}

func (j *job) addSpan(name string, start, end time.Time) {
	if j.phase == 1 {
		j.spans = append(j.spans, localSpan{name: name, kind: kindClient, start: start, end: end})
	}
}

// span is one recorded interval. Spans of one job share Trace; Parent
// is 0 for the job and probe roots.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// recorder keeps the traced phase's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (rc *recorder) secs(t time.Time) float64 { return t.Sub(rc.t0).Seconds() }

// commit files job j's spans under a job root and a probe root, and
// books each layer's self time into j.layers as layer.<name>.self_s.
func (rc *recorder) commit(j *job) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	add := func(parent int, name string, start, end time.Time) int {
		id := len(rc.spans) + 1
		rc.spans = append(rc.spans, span{ID: id, Parent: parent, Trace: j.trace, Name: name,
			Start: rc.secs(start), End: rc.secs(end)})
		return id
	}
	root := add(0, "job", j.start, j.end)
	var client, service []localSpan
	clientIDs := map[int]int{}
	runID := 0
	for i, s := range j.spans {
		if s.kind == kindClient {
			clientIDs[i] = add(root, s.name, s.start, s.end)
			client = append(client, s)
		}
	}
	for _, s := range j.spans {
		if s.kind != kindService {
			continue
		}
		parent, best := root, time.Duration(0)
		for i, c := range j.spans {
			if c.kind == kindClient {
				if ov := overlap(s, c); ov > best {
					parent, best = clientIDs[i], ov
				}
			}
		}
		id := add(parent, s.name, s.start, s.end)
		if s.name == "service.run" {
			runID = id
		}
		service = append(service, s)
	}
	var coreSpans, probes []localSpan
	for _, s := range j.spans {
		switch s.kind {
		case kindCore:
			parent := runID
			if parent == 0 {
				parent = root
			}
			add(parent, s.name, s.start, s.end)
			coreSpans = append(coreSpans, s)
		case kindProbe:
			probes = append(probes, s)
		}
	}
	if len(probes) > 0 {
		proot := add(0, "probe", probes[0].start, probes[len(probes)-1].end)
		for _, s := range probes {
			add(proot, s.name, s.start, s.end)
		}
	}

	// Self time: a client call's time not covered by the service's own
	// spans; the service's time not covered by core stages; core's
	// stages as the union of their (concurrent) intervals. Probe layers
	// are replays, so their time is the replay's duration.
	j.layers["layer.fusionclient.self_s"] = sumDur(client) - coveredWithin(service, client)
	j.layers["layer.service.self_s"] = union(service) - coveredWithin(coreSpans, service)
	j.layers["layer.core.self_s"] = union(coreSpans)
	for _, s := range probes {
		j.layers["layer."+layerOf(s.name)+".self_s"] += s.end.Sub(s.start).Seconds()
	}
}

// write saves every span as JSON under dir/traces and returns the path.
func (rc *recorder) write(dir, name string) (string, error) {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	rc.mu.Lock()
	data, err := json.Marshal(rc.spans)
	rc.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

func overlap(a, b localSpan) time.Duration {
	lo, hi := a.start, a.end
	if b.start.After(lo) {
		lo = b.start
	}
	if b.end.Before(hi) {
		hi = b.end
	}
	if hi.After(lo) {
		return hi.Sub(lo)
	}
	return 0
}

func sumDur(spans []localSpan) float64 {
	var s float64
	for _, sp := range spans {
		s += sp.end.Sub(sp.start).Seconds()
	}
	return s
}

// union is the length of the union of the spans' intervals.
func union(spans []localSpan) float64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]localSpan(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].start.Before(s[b].start) })
	var total time.Duration
	cur := s[0]
	for _, sp := range s[1:] {
		if sp.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = sp
		} else if sp.end.After(cur.end) {
			cur.end = sp.end
		}
	}
	total += cur.end.Sub(cur.start)
	return total.Seconds()
}

// coveredWithin is how much of the outer spans' time the inner spans
// cover (the outer spans do not overlap each other).
func coveredWithin(inner, outer []localSpan) float64 {
	var parts []localSpan
	for _, o := range outer {
		for _, in := range inner {
			if ov := overlap(in, o); ov > 0 {
				lo := in.start
				if o.start.After(lo) {
					lo = o.start
				}
				parts = append(parts, localSpan{start: lo, end: lo.Add(ov)})
			}
		}
	}
	return union(parts)
}

// probe replays one traced job once the window has closed: it imports
// the job's exported spans and replays the job's own input through each
// layer the job used, one probe span per layer function. A cache hit
// skips core and fuse; a scene job skips hsi decode.
func (s *session) probe(j *job) error {
	r := s.r
	if j.failed || j.res == nil {
		return nil
	}
	st := j.res
	if !s.importSpans(j) {
		return nil // a failed trace op is counted; the job goes unprobed
	}
	opts := coreOptions(st.Options)
	p := &prober{j: j}
	hit := st.CacheHit
	switch j.kind {
	case "cube":
		body, err := r.in.hsic(j.variant)
		if err != nil {
			return err
		}
		var cube *hsi.Cube
		p.do("hsi.read_cube_s", func() (err error) {
			cube, err = hsi.ReadCube(bytes.NewReader(body))
			return err
		})
		p.do("hsi.digest_s", func() error { _, err := cube.Digest(); return err })
		p.do("hsi.encode_s", func() error { _, err := cube.WriteTo(io.Discard); return err })
		if r.cfg.workload.durable && !hit {
			s.storeProbes(p, cube, st)
		}
		if !hit {
			p.fuse(r, cube, opts)
		}
	case "scene":
		sf := r.wstate.(*sceneFile)
		restore, err := sf.patch(r.in, j.variant)
		if err != nil {
			return err
		}
		s.sceneProbes(p, sf.path, opts)
		if err := restore(); err != nil {
			return err
		}
		if !hit {
			r.in.with(j.variant, func(c *hsi.Cube) error { p.fuse(r, c, opts); return nil })
		}
	}
	if img, err := png.Decode(bytes.NewReader(j.png)); err == nil {
		p.do("png.encode_s", func() error { return png.Encode(io.Discard, img) })
	} else {
		p.err = err
	}
	if p.err != nil {
		return fmt.Errorf("probe %s: %w", j.key, p.err)
	}
	r.rec.commit(j)
	return nil
}

// importSpans adds the service's queue-wait and run intervals and the
// job's exported core spans (GET /v2/jobs/{id}/trace) to the job,
// reporting whether the trace op succeeded.
func (s *session) importSpans(j *job) bool {
	st := j.res
	tr, err := s.client.Trace(context.Background(), st.ID)
	s.r.ops.add("trace", err != nil)
	if err != nil {
		return false
	}
	if st.Started != nil && st.Finished != nil {
		j.spans = append(j.spans,
			localSpan{name: "service.queue_wait", kind: kindService, start: st.Submitted, end: *st.Started},
			localSpan{name: "service.run", kind: kindService, start: *st.Started, end: *st.Finished})
	}
	at := func(sec float64) time.Time { return st.Submitted.Add(time.Duration(sec * float64(time.Second))) }
	for _, sp := range tr.Spans {
		j.spans = append(j.spans, localSpan{name: "core." + sp.Name, kind: kindCore, start: at(sp.Start), end: at(sp.End)})
		j.layers["core."+sp.Name+"_s"] += sp.End - sp.Start
	}
	return true
}

// prober times one probe per layer function into the job.
type prober struct {
	j   *job
	err error
}

func (p *prober) do(name string, fn func() error) {
	if p.err != nil {
		return
	}
	t := time.Now()
	err := fn()
	end := time.Now()
	if err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	p.j.layers[name] += end.Sub(t).Seconds()
	p.j.spans = append(p.j.spans, localSpan{name: trimUnit(name), kind: kindProbe, start: t, end: end})
}

// fuse replays the job through core.Sequential with its canonical
// options, recording time, allocation and screening work; the composite
// doubles as the correctness reference.
func (p *prober) fuse(r *runner, cube *hsi.Cube, opts core.Options) {
	var m0, m1 runtime.MemStats
	var res *core.Result
	runtime.ReadMemStats(&m0)
	p.do("fuse."+opts.Algorithm+"_s", func() (err error) {
		res, err = core.Sequential(cube, opts)
		return err
	})
	runtime.ReadMemStats(&m1)
	if p.err != nil {
		return
	}
	p.j.layers["fuse."+opts.Algorithm+"_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if opts.Algorithm == "pct" {
		p.j.layers["spectral.comparisons"] = float64(res.ScreenStats.Comparisons)
	}
	r.refs.put(p.j, res.Image)
}

// storeProbes replays the durable admission path's two disk writes: a
// journal append (OpenJournal + Append) and the cube spool (WriteTo +
// fsync + rename), on the journal's filesystem.
func (s *session) storeProbes(p *prober, cube *hsi.Cube, st *fusionclient.Job) {
	dir := filepath.Join(s.dir, "probe")
	opts, err := json.Marshal(st.Options)
	if err != nil {
		p.err = err
		return
	}
	digest, err := cube.Digest()
	if err != nil {
		p.err = err
		return
	}
	jpath := filepath.Join(dir, "journal.log")
	var jr *store.Journal
	p.do("store.journal_append_s", func() (err error) {
		if jr, _, err = store.OpenJournal(jpath); err != nil {
			return err
		}
		return jr.Append(store.JobRecord{Op: store.JobSubmit, Num: 1, ID: st.ID, Kind: "cube",
			Digest: digest, CubeFile: "probe.hsic", Options: opts})
	})
	if jr != nil {
		jr.Close()
	}
	os.Remove(jpath)
	cpath := filepath.Join(dir, "probe.hsic")
	p.do("store.cube_spool_s", func() error {
		f, err := os.Create(cpath + ".tmp")
		if err != nil {
			return err
		}
		if _, err := cube.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(cpath+".tmp", cpath)
	})
	os.Remove(cpath)
}

// sceneProbes replays the scene layer: the registration digest and the
// fuse's prefetching tile reads over the job's decomposition.
func (s *session) sceneProbes(p *prober, path string, opts core.Options) {
	p.do("scene.digest_s", func() error {
		rdr, err := scene.Open(path)
		if err != nil {
			return err
		}
		defer rdr.Close()
		_, err = rdr.Digest()
		return err
	})
	p.do("scene.tile_read_s", func() error {
		rdr, err := scene.Open(path)
		if err != nil {
			return err
		}
		defer rdr.Close()
		_, lines, _ := rdr.Shape()
		ranges := opts.TileRanges(lines)
		tiler := scene.NewPrefetchTiler(scene.NewTiler(rdr), ranges)
		defer tiler.Drain()
		for _, rr := range ranges {
			if _, err := tiler.Tile(rr); err != nil {
				return err
			}
		}
		return nil
	})
}

// trimUnit turns a timing metric's name into its span's name.
func trimUnit(metric string) string { return strings.TrimSuffix(metric, "_s") }

// coreOptions converts the canonical options echo into core.Options.
func coreOptions(o *fusionclient.JobOptions) core.Options {
	if o == nil {
		return core.Options{}
	}
	return core.Options{
		Workers:     o.Workers,
		Granularity: o.Granularity,
		Prefetch:    o.Prefetch,
		Threshold:   o.Threshold,
		Components:  o.Components,
		Parallelism: o.Parallelism,
		Algorithm:   o.Algorithm,
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"image/png"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// smallRun runs one workload at a reduced geometry so the self-test
// exercises every code path in seconds.
func smallRun(t *testing.T, wl *workload, traced bool) *result {
	t.Helper()
	res, err := run(runConfig{
		workload: wl, seed: 3, seconds: 1.5, traced: traced,
		width: 32, height: 32, bands: 12, workDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
	}
	return res
}

// TestWorkloads runs all three workloads untraced and traced, checking
// the result line's contract, the correctness gate, output parity
// across runs of one seed, and the traced run's predicted layer split.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			plain := smallRun(t, wl, false)
			traced := smallRun(t, wl, true)
			for _, res := range []*result{plain, traced} {
				s := res.summary()
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("summary correct=%v failed=%d attempted=%d; verify %+v",
						s.Correct, s.Failed, s.Attempted, res.verify)
				}
				units := endToEndUnits
				if res.traced != nil {
					units = perLayerUnits
				}
				if len(s.Metrics) != len(units) {
					t.Errorf("%d metrics, want %d", len(s.Metrics), len(units))
				}
				var out bytes.Buffer
				res.report(&out)
				if !strings.Contains(out.String(), "outputs_sha256: "+res.verify.outputsSHA256) {
					t.Errorf("report lacks outputs_sha256:\n%s", out.String())
				}
			}
			if len(plain.verify.missing)+len(traced.verify.missing) > 0 {
				t.Errorf("fixed outputs not reached: %v %v", plain.verify.missing, traced.verify.missing)
			}
			if plain.verify.outputsSHA256 != traced.verify.outputsSHA256 {
				t.Errorf("outputs_sha256 differs between runs of one seed: %s vs %s",
					plain.verify.outputsSHA256, traced.verify.outputsSHA256)
			}
			for _, name := range []string{"setup_s", "job_p50_s", "job_tail_s", "jobs_per_s", "peak_rss_mb"} {
				if v := plain.endToEnd()[name]; v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if _, err := os.Stat(traced.tracePath); err != nil {
				t.Errorf("span file: %v", err)
			}
			checkSplit(t, wl.name, traced.perLayer())
		})
	}
}

// checkSplit pins which layers each workload exercises.
func checkSplit(t *testing.T, name string, m map[string]float64) {
	t.Helper()
	positive := func(keys ...string) {
		for _, k := range keys {
			if m[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
			}
		}
	}
	zero := func(keys ...string) {
		for _, k := range keys {
			if m[k] != 0 {
				t.Errorf("%s: %s = %v, want 0", name, k, m[k])
			}
		}
	}
	storeScene := []string{"layer.store.share", "layer.scene.share", "store.journal_append_s",
		"store.cube_spool_s", "scene.digest_s", "scene.tile_read_s"}
	positive("layer.fusionclient.share", "png.encode_s", "fusionclient.result_png_s")
	switch name {
	case "cold-mix":
		positive("layer.core.share", "layer.fuse.share", "fuse.pct_s", "fuse.pyramid_s", "fuse.dwt_s",
			"core.screen_s", "core.fuse_s", "hsi.read_cube_s", "spectral.comparisons")
		zero(storeScene...)
		zero("service.cache_hit_ratio")
	case "hot-repeat":
		positive("hsi.read_cube_s", "hsi.digest_s", "fusionclient.submit_s")
		zero("layer.core.share", "layer.fuse.share", "fuse.pct_s", "core.screen_s")
		zero(storeScene...)
		if m["service.cache_hit_ratio"] != 1 {
			t.Errorf("hot-repeat cache hit ratio %v, want 1", m["service.cache_hit_ratio"])
		}
	case "durable-scene":
		positive(storeScene...)
		positive("fusionclient.register_scene_s", "fusionclient.fuse_scene_s", "store.spill_hit_ratio",
			"store.journal_records_per_job", "layer.core.share")
		if r := m["service.cache_hit_ratio"]; r < 0.2 || r > 0.5 {
			t.Errorf("durable-scene cache hit ratio %v, want about 1/3", r)
		}
	}
}

// TestCorrectnessGate shows the gate rejects a composite that differs
// from core.Sequential in one pixel, and a matching composite whose
// echoed options differ from the requested ones.
func TestCorrectnessGate(t *testing.T) {
	in, err := newInputs(5, 32, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{cfg: runConfig{workload: coldMix}, in: in, refs: newReferences(in)}
	j := &job{key: "cube/1", variant: 1, alg: "pct", res: &fusionclient.Job{Options: &fusionclient.JobOptions{
		Workers: 2, Granularity: 2, Prefetch: 1, Threshold: threshold, Components: 3, Parallelism: 1, Algorithm: "pct",
	}}}
	want, err := r.refs.get(j)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	j.png = buf.Bytes()
	if ok, _, err := r.check(j); !ok || err != nil {
		t.Fatalf("reference composite rejected: %v", err)
	}
	j.pngHash = sha256.Sum256(j.png)
	asked := *j
	asked.alg = "pyramid" // the service echoed pct for a pyramid request
	r.jobs = []*job{j, &asked}
	if rep := r.verify(); rep.checked != 2 || rep.mismatches != 1 || len(rep.errs) != 1 {
		t.Fatalf("echo gate: checked %d, mismatches %d, errors %v; want 2, 1, 1",
			rep.checked, rep.mismatches, rep.errs)
	}
	bad := *want
	bad.Pix = append([]byte(nil), want.Pix...)
	bad.Pix[0] ^= 0xff
	buf.Reset()
	if err := png.Encode(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	j.png = buf.Bytes()
	if ok, _, _ := r.check(j); ok {
		t.Fatal("gate accepted a composite with one wrong pixel")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload names in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit string }
		units map[string]string
	}{{b.EndToEnd, endToEndUnits}, {b.PerLayer, perLayerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): program has unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

// TestScenePatch shows a patched BIL file holds exactly the cube variant
// the correctness gate replays: the scene digest equals the cube's.
func TestScenePatch(t *testing.T) {
	in, err := newInputs(9, 20, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := in.writeScene(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		rdr, err := scene.Open(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		defer rdr.Close()
		d, err := rdr.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base, _ := in.base.Digest()
	for _, v := range []int{sceneVariant(0), sceneVariant(7), 319} {
		restore, err := sf.patch(in, v)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		in.with(v, func(c *hsi.Cube) error { want, err = c.Digest(); return err })
		if got := digest(); got != want || got == base {
			t.Errorf("variant %d: scene digest %s, cube %s, base %s", v, got, want, base)
		}
		if err := restore(); err != nil {
			t.Fatal(err)
		}
		if got := digest(); got != base {
			t.Errorf("variant %d: restored scene digest %s, want base %s", v, got, base)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 19.5}, {90, 35.1}, {100, 39}, {0, 0}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v of 0..39 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(v[:5]); got != 2 {
		t.Errorf("median of 0..4 = %v, want 2", got)
	}
}

// TestTailClass shows job_tail_s reads cold-mix's pyramid jobs and
// durable-scene's cold scene jobs whatever the job count, so a faster
// service moves the tail only as much as those jobs get faster.
func TestTailClass(t *testing.T) {
	for n := 7; n <= 200; n++ {
		var cold, durable []float64
		for i := 0; i < n; i++ {
			// cold-mix rotates pct, pyramid, pct, dwt; durable-scene
			// cycles scene, cube, re-fuse.
			cold = append(cold, map[string]float64{"pct": 0.5, "pyramid": 0.9, "dwt": 0.4}[coldAlgorithms[i%len(coldAlgorithms)]])
			durable = append(durable, []float64{0.65, 0.55, 0.1}[i%3])
		}
		sort.Float64s(cold)
		sort.Float64s(durable)
		if got := tail(cold); got != 0.9 {
			t.Errorf("cold-mix tail of %d jobs = %v, want the pyramid 0.9", n, got)
		}
		if got := tail(durable); got != 0.65 {
			t.Errorf("durable-scene tail of %d jobs = %v, want the scene 0.65", n, got)
		}
	}
}

// TestFailedOpsNotCorrect shows any failed op makes the run incorrect,
// even when every composite passed the gate.
func TestFailedOpsNotCorrect(t *testing.T) {
	res := &result{ops: &opCounts{}, verify: verifyReport{checked: 1}}
	res.ops.add("submit", false)
	if s := res.summary(); !s.Correct {
		t.Fatalf("clean run reported incorrect: %+v", s)
	}
	res.ops.add("wait", true)
	if s := res.summary(); s.Correct || s.Failed != 1 || s.Attempted != 2 {
		t.Fatalf("run with a failed op: correct=%v failed=%d attempted=%d", s.Correct, s.Failed, s.Attempted)
	}
}

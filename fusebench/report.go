package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the run's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the --trace 0 metrics.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"job_p50_s":   "s",
	"job_tail_s":  "s",
	"jobs_per_s":  "1/s",
	"peak_rss_mb": "MB",
}

// perLayerUnits are the --trace 1 metrics. Timings are per-job medians
// over the traced phase's jobs that used the layer (0 where none did).
var perLayerUnits = map[string]string{
	"fusionclient.submit_s":         "s",
	"fusionclient.wait_s":           "s",
	"fusionclient.result_png_s":     "s",
	"fusionclient.register_scene_s": "s",
	"fusionclient.fuse_scene_s":     "s",
	"service.run_s":                 "s",
	"service.queue_wait_s":          "s",
	"service.cache_hit_ratio":       "ratio",
	"service.png_bytes":             "bytes",
	"hsi.read_cube_s":               "s",
	"hsi.digest_s":                  "s",
	"hsi.encode_s":                  "s",
	"png.encode_s":                  "s",
	"core.ingest_s":                 "s",
	"core.screen_s":                 "s",
	"core.mean_s":                   "s",
	"core.covariance_s":             "s",
	"core.eigen_s":                  "s",
	"core.transform_s":              "s",
	"core.fuse_s":                   "s",
	"core.merge_s":                  "s",
	"core.unique_set_size":          "count",
	"fuse.pct_s":                    "s",
	"fuse.pyramid_s":                "s",
	"fuse.dwt_s":                    "s",
	"fuse.pct_alloc_mb":             "MB",
	"fuse.pyramid_alloc_mb":         "MB",
	"fuse.dwt_alloc_mb":             "MB",
	"spectral.comparisons":          "count",
	"store.journal_append_s":        "s",
	"store.cube_spool_s":            "s",
	"store.journal_records_per_job": "count",
	"store.spill_hit_ratio":         "ratio",
	"scene.digest_s":                "s",
	"scene.tile_read_s":             "s",
	"scene.prefetch_hit_ratio":      "ratio",
	"proc.alloc_mb_per_job":         "MB",
	"proc.gc_cycles_per_job":        "count",
	"trace.job_p50_s":               "s",
	"trace.untraced_job_p50_s":      "s",
	"trace.overhead_ratio":          "ratio",
}

// layers are the rows of the traced run's self-time table.
var layers = []string{"fusionclient", "service", "core", "hsi", "png", "fuse", "store", "scene"}

func init() {
	for _, l := range layers {
		perLayerUnits["layer."+l+".self_s"] = "s"
		perLayerUnits["layer."+l+".share"] = "ratio"
	}
}

// timed returns the phase's successful jobs.
func (ph *phaseStats) timed() []*job {
	var out []*job
	for _, j := range ph.jobs {
		if !j.failed {
			out = append(out, j)
		}
	}
	return out
}

// rate is completed jobs per second of window time not spent on the
// benchmark's own work.
func (ph *phaseStats) rate() float64 {
	return float64(len(ph.timed())) / (ph.wall - ph.harness)
}

func latencies(jobs []*job) []float64 {
	v := make([]float64, len(jobs))
	for i, j := range jobs {
		v[i] = j.latency()
	}
	sort.Float64s(v)
	return v
}

// percentile returns the p-th percentile of sorted v, interpolating
// linearly between the two closest ranks (0 when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 { return percentile(v, 50) }

// tailPercentile is job_tail_s's percentile. It is fixed rather than
// derived from the sample count, so the tail reads the same job class
// however many jobs fit in the window: cold-mix's pyramid quarter and
// durable-scene's cold-scene third both lie above it.
const tailPercentile = 90

func tail(v []float64) float64 { return percentile(v, tailPercentile) }

func (res *result) endToEnd() map[string]float64 {
	ph := &res.untraced
	jobs := ph.timed()
	lat := latencies(jobs)
	setup := append([]float64(nil), res.setup...)
	sort.Float64s(setup)
	return map[string]float64{
		"setup_s":     median(setup),
		"job_p50_s":   median(lat),
		"job_tail_s":  tail(lat),
		"jobs_per_s":  ph.rate(),
		"peak_rss_mb": res.peakRSSMB,
	}
}

func (res *result) perLayer() map[string]float64 {
	out := make(map[string]float64, len(perLayerUnits))
	ph := res.traced
	jobs := ph.timed()
	samples := map[string][]float64{}
	var hits, latSum float64
	selfSum := map[string]float64{}
	for _, j := range jobs {
		for k, v := range j.layers {
			samples[k] = append(samples[k], v)
		}
		if j.res.CacheHit {
			hits++
		}
		latSum += j.latency()
		for _, l := range layers {
			selfSum[l] += j.layers["layer."+l+".self_s"]
		}
	}
	for name := range perLayerUnits {
		v := samples[name]
		sort.Float64s(v)
		out[name] = median(v)
	}
	for _, l := range layers {
		// Every traced job contributes to a layer's median, 0 where
		// the job did not use the layer, so medians and shares agree.
		v := make([]float64, len(jobs))
		for i, j := range jobs {
			v[i] = j.layers["layer."+l+".self_s"]
		}
		sort.Float64s(v)
		out["layer."+l+".self_s"] = median(v)
		if latSum > 0 {
			out["layer."+l+".share"] = selfSum[l] / latSum
		}
	}
	n := float64(len(jobs))
	if n > 0 {
		out["service.cache_hit_ratio"] = hits / n
		if ph.statsFrom.Store != nil && ph.statsTo.Store != nil {
			out["store.journal_records_per_job"] = float64(ph.statsTo.Store.JournalRecords-ph.statsFrom.Store.JournalRecords) / n
			sh := float64(ph.statsTo.Store.SpillHits - ph.statsFrom.Store.SpillHits)
			sm := float64(ph.statsTo.Store.SpillMisses - ph.statsFrom.Store.SpillMisses)
			out["store.spill_hit_ratio"] = ratio(sh, sh+sm)
		}
	}
	delta := func(name string) float64 { return ph.metricsTo[name] - ph.metricsFrom[name] }
	out["scene.prefetch_hit_ratio"] = ratio(delta("fusion_scene_prefetch_hits_total"), delta("fusion_scene_tiles_read_total"))
	if un := float64(len(res.untraced.timed())); un > 0 {
		out["proc.alloc_mb_per_job"] = res.untraced.allocMB / un
		out["proc.gc_cycles_per_job"] = float64(res.untraced.gcCycles) / un
	}
	tp := median(latencies(jobs))
	up := median(latencies(res.untraced.timed()))
	out["trace.job_p50_s"] = tp
	out["trace.untraced_job_p50_s"] = up
	out["trace.overhead_ratio"] = ratio(tp-up, up)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (res *result) summary() summary {
	attempted, failed := res.ops.totals()
	s := summary{
		// Any failed op — an error, a 503 queue_full or a composite the
		// gate rejected — makes the run incorrect, so a change cannot
		// buy latency with jobs that fail fast.
		Correct:   failed == 0 && res.verify.mismatches == 0 && len(res.verify.errs) == 0 && res.verify.checked > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	values, units := res.endToEnd(), endToEndUnits
	if res.traced != nil {
		values, units = res.perLayer(), perLayerUnits
	}
	for name, unit := range units {
		s.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	return s
}

// report prints the human-readable part of the result.
func (res *result) report(w io.Writer) {
	cfg := res.cfg
	wl := cfg.workload
	fmt.Fprintf(w, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintln(w, "note: not comparable with the BENCH_*.json kernel numbers (64x64x24 single kernels, on a host about 2x faster)")
	fmt.Fprintf(w, "workload: %s clients=%d closed-loop cube=%dx%dx%d seed=%d seconds=%g traced=%v\n",
		wl.name, wl.clients, cfg.width, cfg.height, cfg.bands, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(w, "setup: %d boots, seconds %s\n", len(res.setup), fmtList(res.setup))
	res.reportPhase(w, "untraced", &res.untraced)
	if res.traced != nil {
		res.reportPhase(w, "traced", res.traced)
	}
	attempted, failed := res.ops.totals()
	fmt.Fprintf(w, "%s\n", res.ops.String())
	fmt.Fprintf(w, "failed_ratio: %g (%d of %d ops)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	fmt.Fprintf(w, "correctness: %d composites checked against core.Sequential, %d mismatches\n",
		res.verify.checked, res.verify.mismatches)
	for _, e := range res.verify.errs {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "outputs_sha256: %s (over %s)\n", res.verify.outputsSHA256, strings.Join(wl.outputs, ","))
	if len(res.verify.missing) > 0 {
		fmt.Fprintf(w, "  window too short to reach: %s\n", strings.Join(res.verify.missing, ","))
	}
	if res.traced != nil {
		res.reportLayers(w)
	}
}

func (res *result) reportPhase(w io.Writer, name string, ph *phaseStats) {
	jobs := ph.timed()
	lat := latencies(jobs)
	fmt.Fprintf(w, "%s: jobs=%d wall=%.3fs harness=%.3fs job_p50_s=%.4f (n=%d) job_tail_s=%.4f (p%d) jobs_per_s=%.4f\n",
		name, len(jobs), ph.wall, ph.harness, median(lat), len(lat), tail(lat), tailPercentile, ph.rate())
	byKind := map[string][]*job{}
	for _, j := range jobs {
		k := j.kind + "/" + j.alg
		if j.res.CacheHit {
			k += "/hit"
		}
		byKind[k] = append(byKind[k], j)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := latencies(byKind[k])
		fmt.Fprintf(w, "  %-22s n=%-4d p50=%.4fs min=%.4fs max=%.4fs\n", k, len(l), median(l), l[0], l[len(l)-1])
	}
}

func (res *result) reportLayers(w io.Writer) {
	m := res.perLayer()
	fmt.Fprintf(w, "per-layer (traced phase; hsi, png, fuse, store and scene are replays of the job's input outside its span):\n")
	fmt.Fprintf(w, "  %-14s %12s %8s\n", "layer", "self_s p50", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-14s %12.5f %7.1f%%\n", l, m["layer."+l+".self_s"], 100*m["layer."+l+".share"])
	}
	names := make([]string, 0, len(m))
	for k := range m {
		if !strings.HasPrefix(k, "layer.") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %.6g %s\n", k, m[k], perLayerUnits[k])
	}
	fmt.Fprintf(w, "tracing overhead: job_p50_s traced %.4f vs untraced %.4f (%+.1f%%)\n",
		m["trace.job_p50_s"], m["trace.untraced_job_p50_s"], 100*m["trace.overhead_ratio"])
	fmt.Fprintf(w, "spans: %s\n", res.tracePath)
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, " ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// parseMetrics reads Prometheus text exposition into name{labels} →
// value, skipping comments.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"sort"
	"sync"

	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
)

// references memoizes the correctness oracle: core.Sequential on a
// job's input with the job's echoed canonical options. Parallelism is
// result-invariant, so the oracle runs at full host parallelism.
type references struct {
	in *inputs

	mu     sync.Mutex
	images map[string]*image.RGBA
	kept   map[string]bool // refKey + PNG hash already holding bytes
}

func newReferences(in *inputs) *references {
	return &references{in: in, images: make(map[string]*image.RGBA), kept: make(map[string]bool)}
}

// refKey identifies a reference: the input and the canonical options.
func refKey(j *job) string {
	opts, _ := json.Marshal(j.res.Options)
	return j.key + "|" + string(opts)
}

func (rf *references) keepPNG(j *job) bool {
	k := refKey(j) + "|" + hex.EncodeToString(j.pngHash[:])
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.kept[k] {
		return false
	}
	rf.kept[k] = true
	return true
}

func (rf *references) put(j *job, img *image.RGBA) {
	rf.mu.Lock()
	rf.images[refKey(j)] = img
	rf.mu.Unlock()
}

func (rf *references) get(j *job) (*image.RGBA, error) {
	k := refKey(j)
	rf.mu.Lock()
	img := rf.images[k]
	rf.mu.Unlock()
	if img != nil {
		return img, nil
	}
	opts := coreOptions(j.res.Options)
	opts.Parallelism = 0
	err := rf.in.with(j.variant, func(c *hsi.Cube) error {
		res, err := core.Sequential(c, opts)
		if err == nil {
			img = res.Image
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", k, err)
	}
	rf.put(j, img)
	return img, nil
}

// verifyReport is the correctness gate's outcome.
type verifyReport struct {
	checked    int // jobs whose composite was compared (deduplicated PNGs count once per job)
	mismatches int
	errs       []string
	missing    []string // fixed outputs the run did not reach
	// outputsSHA256 hashes the decoded pixels of the workload's fixed
	// outputs, in order, for parity checks between commits.
	outputsSHA256 string
}

// verify decodes every composite and compares its pixels with the
// reference, outside any timed interval. A mismatch fails the job's
// result op.
func (r *runner) verify() verifyReport {
	var rep verifyReport
	verdict := map[string]bool{}    // refKey|pngHash → pixels match
	pixels := map[string][32]byte{} // output (key/alg) → decoded pixel hash
	for _, j := range r.jobs {
		if j.failed || j.res == nil || j.png == nil || echoErr(j) != nil {
			continue
		}
		ok, sum, err := r.check(j)
		if err != nil {
			rep.errs = append(rep.errs, err.Error())
		}
		verdict[refKey(j)+"|"+hex.EncodeToString(j.pngHash[:])] = ok
		if ok {
			pixels[j.key+"/"+j.alg] = sum
		}
	}
	for _, j := range r.jobs {
		if j.failed || j.res == nil {
			continue
		}
		rep.checked++
		ok := verdict[refKey(j)+"|"+hex.EncodeToString(j.pngHash[:])]
		if err := echoErr(j); err != nil {
			rep.errs = append(rep.errs, err.Error())
			ok = false
		}
		if !ok {
			rep.mismatches++
			r.ops.fail("result")
		}
	}
	h := sha256.New()
	for _, out := range r.cfg.workload.outputs {
		if sum, ok := pixels[out]; ok {
			fmt.Fprintf(h, "%s:%x\n", out, sum)
		} else {
			fmt.Fprintf(h, "%s:missing\n", out)
			rep.missing = append(rep.missing, out)
		}
	}
	rep.outputsSHA256 = hex.EncodeToString(h.Sum(nil))
	sort.Strings(rep.errs)
	return rep
}

// echoErr reports a job whose echoed canonical options differ from the
// ones it requested. The reference follows the echo, so without this a
// service that ran another algorithm than asked would still pass.
func echoErr(j *job) error {
	o := j.res.Options
	if o == nil || o.Algorithm != j.alg || o.Threshold != threshold {
		return fmt.Errorf("%s: service echoed options %+v for algorithm %s threshold %g", j.key, o, j.alg, threshold)
	}
	return nil
}

// check decodes one job's PNG and compares it with the reference,
// returning the SHA-256 of the decoded RGBA pixels.
func (r *runner) check(j *job) (bool, [32]byte, error) {
	var sum [32]byte
	img, err := png.Decode(bytes.NewReader(j.png))
	if err != nil {
		return false, sum, fmt.Errorf("decode %s: %w", j.key, err)
	}
	got := toRGBA(img)
	want, err := r.refs.get(j)
	if err != nil {
		return false, sum, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d\n", got.Rect.Dx(), got.Rect.Dy())
	h.Write(got.Pix)
	copy(sum[:], h.Sum(nil))
	if got.Rect != want.Rect || !bytes.Equal(got.Pix, want.Pix) {
		return false, sum, fmt.Errorf("composite of %s (%s) differs from core.Sequential", j.key, j.alg)
	}
	return true, sum, nil
}

func toRGBA(img image.Image) *image.RGBA {
	if rgba, ok := img.(*image.RGBA); ok && rgba.Stride == 4*rgba.Rect.Dx() {
		return rgba
	}
	b := img.Bounds()
	rgba := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(rgba, rgba.Rect, img, b.Min, draw.Src)
	return rgba
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"resilientfusion/internal/experiments"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// inputs derives every cube and scene a run submits from the paper's
// scene (hsi.GenerateScene with the experiments.PaperScale spec, its own
// fixed scene seed) and the run's seed. Variant v differs from that
// scene in exactly one sample, raised by one count, at a pixel the run
// seed and v select. Variants are therefore distinct by content —
// distinct digests, so distinct cache keys — while every seed fuses the
// same scene with the same work; a per-seed scene would vary the unique
// set, and with it the work, from seed to seed.
//
// The base cube is shared mutable state: only one goroutine at a time
// may hold a variant applied (callers serialize through with).
type inputs struct {
	base   *hsi.Cube
	offset int // the seed's first perturbed pixel
}

// variantStride spaces consecutive variants' pixels; being odd and not
// a multiple of 5 it is coprime with every W×H of the form 2^a·5^b (the
// paper's 320×320 included), so variants below W×H never collide.
const variantStride = 7919

func newInputs(seed int64, width, height, bands int) (*inputs, error) {
	spec := experiments.PaperScale().Scene
	spec.Width, spec.Height, spec.Bands = width, height, bands
	s, err := hsi.GenerateScene(spec)
	if err != nil {
		return nil, fmt.Errorf("generate scene: %w", err)
	}
	off := rand.New(rand.NewSource(seed)).Intn(width * height)
	return &inputs{base: s.Cube, offset: off}, nil
}

// pixel is the pixel variant v perturbs.
func (in *inputs) pixel(v int) int {
	return (in.offset + v*variantStride) % in.base.Pixels()
}

// with applies variant v (band 0 of its pixel, one count up) to the base
// cube, calls fn with it, and restores the base.
func (in *inputs) with(v int, fn func(*hsi.Cube) error) error {
	i := in.pixel(v) * in.base.Bands
	orig := in.base.Data[i]
	in.base.Data[i] = orig + 1
	defer func() { in.base.Data[i] = orig }()
	return fn(in.base)
}

// hsic returns variant v's HSIC encoding.
func (in *inputs) hsic(v int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(in.base.EncodedSize()))
	err := in.with(v, func(c *hsi.Cube) error {
		_, err := c.WriteTo(&buf)
		return err
	})
	return buf.Bytes(), err
}

// sceneFile is the base scene written once as an ENVI BIL file. Variant
// v is the same file with its one perturbed sample patched in place, so a
// scene costs the benchmark a 4-byte write instead of a whole file.
type sceneFile struct {
	path, header string
}

func (in *inputs) writeScene(dir string) (*sceneFile, error) {
	path := filepath.Join(dir, "scene.raw")
	if err := scene.Write(path, in.base, scene.BIL); err != nil {
		return nil, fmt.Errorf("write scene: %w", err)
	}
	hdr, err := os.ReadFile(scene.HeaderPath(path))
	if err != nil {
		return nil, err
	}
	return &sceneFile{path: path, header: string(hdr)}, nil
}

// patch writes variant v's sample into the file and returns the function
// that restores the base value. In BIL, band 0 of pixel (x, y) is the
// little-endian float32 at ((y·bands)·width + x)·4.
func (sf *sceneFile) patch(in *inputs, v int) (restore func() error, err error) {
	c := in.base
	px := in.pixel(v)
	off := int64(px/c.Width*c.Bands*c.Width+px%c.Width) * 4
	orig := c.Data[px*c.Bands]
	put := func(val float32) error {
		f, err := os.OpenFile(sf.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(val))
		if _, err := f.WriteAt(b[:], off); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := put(orig + 1); err != nil {
		return nil, fmt.Errorf("patch scene: %w", err)
	}
	return func() error { return put(orig) }, nil
}

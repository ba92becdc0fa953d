package hsi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
)

// Binary cube format ("HSIC"):
//
//	magic   [4]byte  "HSIC"
//	version uint16   currently 1
//	flags   uint16   bit 0: wavelength table present
//	width   uint32
//	height  uint32
//	bands   uint32
//	[wavelengths]  bands × float64 (if flag bit 0)
//	data    width·height·bands × float32
//
// All fields little-endian. The format is deliberately trivial: the paper's
// pipeline streams raw sub-cubes between machines, so the on-disk format
// mirrors the wire representation.

var (
	cubeMagic = [4]byte{'H', 'S', 'I', 'C'}

	// ErrBadFormat is returned when decoding malformed cube bytes.
	ErrBadFormat = errors.New("hsi: bad cube format")
	// ErrCubeTooLarge is returned by ReadCubeLimit when the header's
	// claimed dimensions exceed the caller's size bound.
	ErrCubeTooLarge = errors.New("hsi: cube exceeds size limit")
)

const (
	codecVersion       = 1
	flagHasWavelengths = 1 << 0
	// maxReasonableDim guards against allocating absurd buffers from
	// corrupt headers.
	maxReasonableDim = 1 << 20
)

// WriteTo serializes the cube to w, returning the number of bytes written.
// It is the one-shot form of StreamWriter: the bytes are identical.
func (c *Cube) WriteTo(w io.Writer) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	sw, err := NewStreamWriter(w, c.Width, c.Height, c.Bands, c.Wavelengths)
	if err != nil {
		return 0, err
	}
	if err := sw.WriteSamples(c.Data); err != nil {
		return sw.Written(), err
	}
	return sw.Written(), sw.Close()
}

// StreamWriter encodes a cube in HSIC format incrementally: the header is
// emitted up front from the declared geometry and samples are appended in
// BIP order in caller-chosen slices (typically bounded row windows), so a
// scene larger than memory can be encoded — or digested — without ever
// materializing its full sample array. Cube.WriteTo is implemented over
// it; the two produce bit-identical bytes for the same geometry and data.
type StreamWriter struct {
	bw        *bufio.Writer
	remaining int   // samples still owed before Close
	n         int64 // bytes written (counting bufio-buffered ones)
	buf       []byte
}

// NewStreamWriter writes the HSIC header for the given geometry and
// returns a writer expecting exactly width·height·bands samples.
// wavelengths may be nil; when present its length must equal bands.
func NewStreamWriter(w io.Writer, width, height, bands int, wavelengths []float64) (*StreamWriter, error) {
	if width <= 0 || height <= 0 || bands <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", ErrShape, width, height, bands)
	}
	if wavelengths != nil && len(wavelengths) != bands {
		return nil, fmt.Errorf("%w: %d wavelengths for %d bands", ErrShape, len(wavelengths), bands)
	}
	sw := &StreamWriter{
		bw:        bufio.NewWriterSize(w, 1<<16),
		remaining: width * height * bands,
	}

	var flags uint16
	if wavelengths != nil {
		flags |= flagHasWavelengths
	}
	hdr := make([]byte, 0, 20)
	hdr = append(hdr, cubeMagic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, codecVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(width))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(height))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(bands))
	if _, err := sw.bw.Write(hdr); err != nil {
		return nil, err
	}
	sw.n += int64(len(hdr))

	if wavelengths != nil {
		buf := make([]byte, 8*len(wavelengths))
		for i, wl := range wavelengths {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(wl))
		}
		if _, err := sw.bw.Write(buf); err != nil {
			return nil, err
		}
		sw.n += int64(len(buf))
	}
	return sw, nil
}

// WriteSamples appends samples in BIP order. Callers may slice the stream
// arbitrarily (per row window, per tile); only the concatenated order
// matters. Writing more samples than the declared geometry holds is an
// error.
func (sw *StreamWriter) WriteSamples(samples []float32) error {
	if len(samples) > sw.remaining {
		return fmt.Errorf("%w: %d samples past the declared geometry", ErrShape, len(samples)-sw.remaining)
	}
	sw.remaining -= len(samples)
	// Encode in chunks to bound the scratch buffer.
	const chunk = 1 << 14
	if sw.buf == nil {
		sw.buf = make([]byte, 4*chunk)
	}
	for off := 0; off < len(samples); off += chunk {
		end := min(off+chunk, len(samples))
		b := sw.buf[:4*(end-off)]
		for i, v := range samples[off:end] {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
		}
		if _, err := sw.bw.Write(b); err != nil {
			return err
		}
		sw.n += int64(len(b))
	}
	return nil
}

// Written returns the number of bytes encoded so far.
func (sw *StreamWriter) Written() int64 { return sw.n }

// Close flushes the encoder, erroring if the sample count does not match
// the declared geometry.
func (sw *StreamWriter) Close() error {
	if sw.remaining != 0 {
		return fmt.Errorf("%w: %d samples short of the declared geometry", ErrShape, sw.remaining)
	}
	return sw.bw.Flush()
}

// ReadCube deserializes a cube from r.
func ReadCube(r io.Reader) (*Cube, error) { return ReadCubeLimit(r, 0) }

// ReadCubeLimit is ReadCube with an upper bound on the encoded cube
// size, checked against the header's *claimed* dimensions before any
// sample buffer is allocated. Callers decoding untrusted input (the
// fusion service's upload path) need this: a 20-byte header can
// otherwise demand a multi-terabyte allocation. limit <= 0 disables the
// bound.
func ReadCubeLimit(r io.Reader, limit int64) (*Cube, error) {
	return readCube(r, limit, nil)
}

// readCube is the one HSIC decoder. It consumes exactly the bytes the
// header claims — no read-ahead, so a caller can probe r for trailing
// bytes — and, when h is non-nil, feeds every consumed byte to h in
// order. It accepts only canonical encodings (flag bits other than bit 0
// are rejected), so re-encoding a decoded cube reproduces the bytes read
// exactly and h sees what Cube.Digest would hash.
func readCube(r io.Reader, limit int64, h hash.Hash) (*Cube, error) {
	read := func(b []byte) error {
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		if h != nil {
			h.Write(b) // hash.Hash.Write never returns an error
		}
		return nil
	}
	hdr := make([]byte, 20)
	if err := read(hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if [4]byte(hdr[:4]) != cubeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:])
	if flags&^flagHasWavelengths != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrBadFormat, flags)
	}
	width := int(binary.LittleEndian.Uint32(hdr[8:]))
	height := int(binary.LittleEndian.Uint32(hdr[12:]))
	bands := int(binary.LittleEndian.Uint32(hdr[16:]))
	if width <= 0 || height <= 0 || bands <= 0 ||
		width > maxReasonableDim || height > maxReasonableDim || bands > maxReasonableDim {
		return nil, fmt.Errorf("%w: dims %dx%dx%d", ErrBadFormat, width, height, bands)
	}
	if limit > 0 {
		// Each dim is at most 2^20, so the product cannot overflow int64.
		claimed := int64(20) + 4*int64(width)*int64(height)*int64(bands)
		if flags&flagHasWavelengths != 0 {
			claimed += 8 * int64(bands)
		}
		if claimed > limit {
			return nil, fmt.Errorf("%w: header claims %d bytes, limit %d", ErrCubeTooLarge, claimed, limit)
		}
	}

	c := &Cube{Width: width, Height: height, Bands: bands}
	if flags&flagHasWavelengths != 0 {
		buf := make([]byte, 8*bands)
		if err := read(buf); err != nil {
			return nil, fmt.Errorf("%w: wavelengths: %v", ErrBadFormat, err)
		}
		c.Wavelengths = make([]float64, bands)
		for i := range c.Wavelengths {
			c.Wavelengths[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}

	c.Data = make([]float32, width*height*bands)
	const chunk = 1 << 14
	buf := make([]byte, 4*chunk)
	for off := 0; off < len(c.Data); off += chunk {
		dst := c.Data[off:min(off+chunk, len(c.Data))]
		b := buf[:4*len(dst)]
		if err := read(b); err != nil {
			return nil, fmt.Errorf("%w: samples: %v", ErrBadFormat, err)
		}
		// Indexing the re-sliced dst, with each source word sliced to its
		// exact four bytes, leaves one bounds check per sample.
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i : 4*i+4]))
		}
	}
	return c, nil
}

// SaveFile writes the cube to path in HSIC format.
func (c *Cube) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a cube in HSIC format from path.
func LoadFile(path string) (*Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCube(f)
}

// EncodedSize returns the exact number of bytes WriteTo will produce,
// used by the performance model to charge network transfer costs.
func (c *Cube) EncodedSize() int64 {
	n := int64(20)
	if c.Wavelengths != nil {
		n += int64(8 * len(c.Wavelengths))
	}
	return n + int64(4*len(c.Data))
}

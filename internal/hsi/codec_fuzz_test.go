package hsi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// fuzzCubeLimit bounds the header's claimed size, so a fuzzed header
// cannot make the decoder allocate more than a few MiB.
const fuzzCubeLimit = 1 << 22

// FuzzReadCubeDigest pins the property the service's upload path rests
// on: for every input ReadCubeDigest accepts, the returned digest is the
// SHA-256 of exactly the bytes it consumed, equals Cube.Digest of the
// decoded cube (so hashing while decoding keys the result cache as the
// re-encoding did), and ReadCubeLimit decodes the same cube bit for bit.
func FuzzReadCubeDigest(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	withWL := MustNewCube(3, 2, 4)
	for i := range withWL.Data {
		withWL.Data[i] = float32(rng.Float64() * 4095)
	}
	withWL.Wavelengths = DefaultWavelengths(4)
	noWL := MustNewCube(2, 2, 3)
	copy(noWL.Data, withWL.Data)
	var a, b bytes.Buffer
	if _, err := withWL.WriteTo(&a); err != nil {
		f.Fatal(err)
	}
	if _, err := noWL.WriteTo(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(a.Bytes())
	f.Add(b.Bytes())
	f.Add(withFlags(b.Bytes(), 0x2))
	f.Add(a.Bytes()[:a.Len()-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		c, digest, err := ReadCubeDigest(r, fuzzCubeLimit)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		sum := sha256.Sum256(consumed)
		if want := hex.EncodeToString(sum[:]); digest != want {
			t.Fatalf("digest %s, sha256 of the %d consumed bytes %s", digest, len(consumed), want)
		}
		if cd, err := c.Digest(); err != nil || cd != digest {
			t.Fatalf("Cube.Digest = %s, %v; one-pass digest %s", cd, err, digest)
		}
		d, err := ReadCubeLimit(bytes.NewReader(data), fuzzCubeLimit)
		if err != nil {
			t.Fatalf("ReadCubeLimit rejects what ReadCubeDigest accepted: %v", err)
		}
		if d.Width != c.Width || d.Height != c.Height || d.Bands != c.Bands ||
			(d.Wavelengths == nil) != (c.Wavelengths == nil) || len(d.Data) != len(c.Data) {
			t.Fatal("ReadCubeLimit decodes a different geometry")
		}
		for i, wl := range c.Wavelengths {
			if math.Float64bits(wl) != math.Float64bits(d.Wavelengths[i]) {
				t.Fatalf("wavelength %d differs", i)
			}
		}
		for i, v := range c.Data {
			if math.Float32bits(v) != math.Float32bits(d.Data[i]) {
				t.Fatalf("sample %d differs", i)
			}
		}
	})
}

// BenchmarkReadCubeDigest decodes and digests one upload at the paper's
// geometry (320×320×105), the ingest work of a cube submission.
func BenchmarkReadCubeDigest(b *testing.B) {
	c := MustNewCube(320, 320, 105)
	rng := rand.New(rand.NewSource(32))
	for i := range c.Data {
		c.Data[i] = float32(rng.Intn(4096))
	}
	c.Wavelengths = DefaultWavelengths(c.Bands)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	for b.Loop() {
		if _, _, err := ReadCubeDigest(bytes.NewReader(enc), 0); err != nil {
			b.Fatal(err)
		}
	}
}

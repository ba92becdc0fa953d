package hsi

import (
	"bytes"
	"errors"
	"testing"
)

func TestDigestContentAddressing(t *testing.T) {
	a, err := NewCube(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	b, err := NewCube(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Data, a.Data)

	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("equal cubes digest differently: %s vs %s", da, db)
	}
	if da2, _ := a.Digest(); da2 != da {
		t.Fatal("digest not stable across calls")
	}

	b.Data[0] += 1
	if db2, _ := b.Digest(); db2 == da {
		t.Fatal("sample change did not change digest")
	}

	// Shape participates even when the flattened data matches.
	c, err := NewCube(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(c.Data, a.Data)
	if dc, _ := c.Digest(); dc == da {
		t.Fatal("shape change did not change digest")
	}

	// The wavelength table participates too.
	a.Wavelengths = []float64{400, 500}
	if dw, _ := a.Digest(); dw == da {
		t.Fatal("wavelength table did not change digest")
	}
}

func TestReadCubeLimit(t *testing.T) {
	c, err := NewCube(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	// Under the limit: decodes fine.
	if _, err := ReadCubeLimit(bytes.NewReader(enc), c.EncodedSize()); err != nil {
		t.Fatalf("limit == size: %v", err)
	}
	// Claimed size over the limit: rejected from the header alone, even
	// though only 20 bytes are present.
	if _, err := ReadCubeLimit(bytes.NewReader(enc[:20]), 64); !errors.Is(err, ErrCubeTooLarge) {
		t.Fatalf("oversize claim err = %v", err)
	}
	// limit <= 0 disables the bound.
	if _, err := ReadCubeLimit(bytes.NewReader(enc), 0); err != nil {
		t.Fatalf("no limit: %v", err)
	}
}

func TestReadCubeDigestMatchesDigest(t *testing.T) {
	withWL := testCube(t, 5, 3, 4, 27)
	noWL := testCube(t, 3, 5, 2, 28)
	noWL.Wavelengths = nil
	for _, c := range []*Cube{withWL, noWL} {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := c.Digest()
		if err != nil {
			t.Fatal(err)
		}
		d, got, err := ReadCubeDigest(bytes.NewReader(buf.Bytes()), c.EncodedSize())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("one-pass digest %s, Cube.Digest %s", got, want)
		}
		if !c.Equal(d, 0) || (d.Wavelengths == nil) != (c.Wavelengths == nil) {
			t.Fatal("decoded cube differs")
		}
	}
}

func TestReadCubeDigestLeavesTrailingBytes(t *testing.T) {
	c := testCube(t, 2, 2, 2, 29)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("tail")
	if _, _, err := ReadCubeDigest(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if rest := buf.String(); rest != "tail" {
		t.Fatalf("decoder consumed past the cube: %q left", rest)
	}
}

func TestReadCubeDigestRejects(t *testing.T) {
	if _, _, err := ReadCubeDigest(bytes.NewReader([]byte("HSIC")), 0); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short header err = %v", err)
	}
	var buf bytes.Buffer
	if _, err := testCube(t, 4, 4, 4, 30).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCubeDigest(bytes.NewReader(buf.Bytes()), 64); !errors.Is(err, ErrCubeTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
}

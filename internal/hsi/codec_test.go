package hsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	c := testCube(t, 7, 5, 9, 21)
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != c.EncodedSize() {
		t.Fatalf("EncodedSize = %d, actual %d", c.EncodedSize(), n)
	}
	d, err := ReadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(d, 0) {
		t.Fatal("decoded cube differs")
	}
	if len(d.Wavelengths) != c.Bands || d.Wavelengths[0] != c.Wavelengths[0] {
		t.Fatal("wavelengths lost in roundtrip")
	}
}

func TestCodecRoundTripNoWavelengths(t *testing.T) {
	c := testCube(t, 3, 3, 3, 22)
	c.Wavelengths = nil
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Wavelengths != nil {
		t.Fatal("wavelengths should be absent")
	}
	if !c.Equal(d, 0) {
		t.Fatal("decoded cube differs")
	}
}

// withFlags returns enc with its header's flags word replaced.
func withFlags(enc []byte, flags uint16) []byte {
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint16(out[6:], flags)
	return out
}

func TestCodecRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testCube(t, 2, 2, 3, 26).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX................"), // bad magic
		append([]byte("HSIC"), bytes.Repeat([]byte{9}, 16)...), // absurd dims / version
		// Only flag bit 0 is defined; any other bit would make a second
		// encoding of the same cube, breaking digest-as-you-decode.
		withFlags(buf.Bytes(), 0x2),
		withFlags(buf.Bytes(), 0x3),
	}
	for i, b := range cases {
		if _, err := ReadCube(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestCodecTruncatedData(t *testing.T) {
	c := testCube(t, 4, 4, 4, 23)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadCube(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestCodecWriteRejectsInvalidCube(t *testing.T) {
	c := testCube(t, 2, 2, 2, 24)
	c.Data = c.Data[:3]
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := testCube(t, 6, 4, 3, 25)
	path := filepath.Join(t.TempDir(), "cube.hsic")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(d, 0) {
		t.Fatal("file roundtrip differs")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.hsic")); err == nil {
		t.Fatal("loading missing file should error")
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	c := MustNewCube(2, 1, 2)
	c.Data[0] = 0
	c.Data[1] = -0
	c.Data[2] = 1.5e38
	c.Data[3] = 1e-38
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Data {
		if c.Data[i] != d.Data[i] {
			t.Fatalf("sample %d: %g != %g", i, c.Data[i], d.Data[i])
		}
	}
}

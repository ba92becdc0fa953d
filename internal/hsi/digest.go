package hsi

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// Digest returns the SHA-256 digest (hex) of the cube's canonical HSIC
// encoding. Two cubes digest equal exactly when WriteTo produces
// identical bytes — same dimensions, wavelength table and samples — which
// is what the service layer's content-addressed result cache keys on.
func (c *Cube) Digest() (string, error) {
	h := sha256.New()
	if _, err := c.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ReadCubeDigest is ReadCubeLimit that also returns the SHA-256 digest
// (hex) of the bytes it consumed, hashed in the same pass that decodes
// them. The decoder accepts only canonical encodings, so the digest
// equals the decoded cube's Digest without re-encoding it.
func ReadCubeDigest(r io.Reader, limit int64) (*Cube, string, error) {
	h := sha256.New()
	c, err := readCube(r, limit, h)
	if err != nil {
		return nil, "", err
	}
	return c, hex.EncodeToString(h.Sum(nil)), nil
}
